package scenario

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

const goldenDir = "testdata/golden"

// TestBuiltinSpecsValidate holds every catalogue entry to the same
// validation a decoded user spec gets, and requires the ISSUE's diversity
// floor: at least 7 scenarios covering at least 5 distinct families.
func TestBuiltinSpecsValidate(t *testing.T) {
	specs := Scenarios()
	if len(specs) < 7 {
		t.Fatalf("catalogue holds %d scenarios, want ≥ 7", len(specs))
	}
	families := map[string]bool{}
	seen := map[string]bool{}
	seeds := map[int64]string{}
	for i := range specs {
		s := &specs[i]
		if err := s.Validate(); err != nil {
			t.Errorf("builtin %s: %v", s.Name, err)
		}
		if seen[s.Name] {
			t.Errorf("duplicate scenario name %q", s.Name)
		}
		seen[s.Name] = true
		if prev, dup := seeds[s.Seed]; dup {
			t.Errorf("scenarios %s and %s share seed %d; distinct seeds keep trials independent",
				prev, s.Name, s.Seed)
		}
		seeds[s.Seed] = s.Name
		families[s.Family] = true
		if got, ok := ByName(s.Name); !ok || got.Name != s.Name {
			t.Errorf("ByName(%q) failed", s.Name)
		}
	}
	if len(families) < 4 {
		t.Errorf("catalogue spans %d fault families, want ≥ 4", len(families))
	}
}

// TestSpecRoundTrip proves Encode/Decode loses nothing: the declarative
// form is the source of truth, so it must survive serialization.
func TestSpecRoundTrip(t *testing.T) {
	for _, s := range Scenarios() {
		data, err := s.Encode()
		if err != nil {
			t.Fatalf("%s: encode: %v", s.Name, err)
		}
		back, err := Decode(data)
		if err != nil {
			t.Fatalf("%s: decode: %v\n%s", s.Name, err, data)
		}
		again, err := back.Encode()
		if err != nil {
			t.Fatalf("%s: re-encode: %v", s.Name, err)
		}
		if string(data) != string(again) {
			t.Errorf("%s: round trip drifted:\n%s\nvs\n%s", s.Name, data, again)
		}
	}
}

// TestDecodeRejects is the table of malformed specs Decode must refuse —
// with an error, never a panic (FuzzScenarioConfigDecode widens this).
func TestDecodeRejects(t *testing.T) {
	valid, err := Scenarios()[0].Encode()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data string
		want string
	}{
		{"empty", ``, "decode"},
		{"not json", `{{{`, "decode"},
		{"unknown field", `{"name":"x","bogus":1}`, "bogus"},
		{"trailing data", string(valid) + `{}`, "trailing"},
		{"bad name", `{"name":"Bad Name!","description":"d","seed":1,"users":1,"duration":"1s"}`, "name"},
		{"zero seed", `{"name":"x","description":"d","seed":0,"users":1,"duration":"1s"}`, "seed"},
		{"negative duration", `{"name":"x","description":"d","seed":1,"users":1,"duration":"-3s"}`, "duration"},
		{"zero users", `{"name":"x","description":"d","seed":1,"users":0,"duration":"1s"}`, "users"},
		{"bad mix", `{"name":"x","description":"d","seed":1,"users":1,"duration":"1s","mix":"chaos"}`, "mix"},
		{"unknown injector kind", `{"name":"x","description":"d","seed":1,"users":1,"duration":"1s",
			"injectors":[{"kind":"meteor-strike","at":"1s"}]}`, "unknown injector kind"},
		{"negative injector window", `{"name":"x","description":"d","seed":1,"users":1,"duration":"1s",
			"injectors":[{"kind":"db-log-flush","at":"-1s","duration":"1s"}]}`, "window"},
		{"seize last tier", `{"name":"x","description":"d","seed":1,"users":1,"duration":"1s",
			"injectors":[{"kind":"conn-pool-seize","tier":"mysql","at":"1s","duration":"1s","held":1}]}`, "downstream"},
		{"unknown expect kind", `{"name":"x","description":"d","seed":1,"users":1,"duration":"1s",
			"expect":[{"kind":"gremlins","node":"mysql","from":"1s","to":"2s"}]}`, "cause kind"},
		{"expect window inverted", `{"name":"x","description":"d","seed":1,"users":1,"duration":"1s",
			"expect":[{"kind":"disk-io","node":"mysql","from":"2s","to":"1s"}]}`, "window"},
		{"missing without degraded", `{"name":"x","description":"d","seed":1,"users":1,"duration":"1s",
			"expect":[{"kind":"disk-io","node":"mysql","from":"1s","to":"2s","missing":["a"]}]}`, "degraded"},
		{"delete unknown tier", `{"name":"x","description":"d","seed":1,"users":1,"duration":"1s",
			"delete_tiers":["nginx"]}`, "unknown tier"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Decode([]byte(tc.data))
			if err == nil {
				t.Fatalf("decoded invalid spec %+v", s)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// FuzzScenarioConfigDecode requires Decode to reject arbitrary input with
// an error, never a panic, and accepted specs to survive a round trip.
func FuzzScenarioConfigDecode(f *testing.F) {
	for _, s := range Scenarios() {
		data, err := s.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"name":"x","seed":-1,"duration":"-5m"}`))
	f.Add([]byte(`{"injectors":[{"kind":"zzz"}]}`))
	f.Add([]byte(`{"name":"x","description":"d","seed":1,"users":1,"duration":1000000}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return
		}
		out, err := s.Encode()
		if err != nil {
			t.Fatalf("accepted spec failed to encode: %v", err)
		}
		if _, err := Decode(out); err != nil {
			t.Fatalf("accepted spec failed to re-decode: %v\n%s", err, out)
		}
	})
}

// TestRenderListGolden pins the `mscope scenario list` output: catalogue
// drift must be a reviewed diff.
func TestRenderListGolden(t *testing.T) {
	got := RenderList(Scenarios())
	path := filepath.Join(goldenDir, "scenario_list.txt")
	if *updateGolden {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("scenario list drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestCatalogueVerdictsGolden pins the batch verdict line of every
// catalogue entry — kind, node and window bounds, no timings — so a change
// to detection or classification shows as a reviewed diff.
func TestCatalogueVerdictsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("catalogue verdicts skipped in -short")
	}
	var b strings.Builder
	opts := Options{WorkDir: t.TempDir()}
	for _, s := range Scenarios() {
		out, err := Verify(&s, opts)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		fmt.Fprintf(&b, "%s %s\n", s.Name, strings.Join(out.Verdicts, ", "))
	}
	got := b.String()
	path := filepath.Join(goldenDir, "scenario_verdicts.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("catalogue verdicts drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestCatalogueVerify is the batch soak: every registered scenario must
// reach exactly its expected verdict. Per-scenario timing is logged so
// slow entries are visible in CI output.
func TestCatalogueVerify(t *testing.T) {
	if testing.Short() {
		t.Skip("catalogue soak skipped in -short")
	}
	opts := Options{WorkDir: t.TempDir()}
	for _, s := range Scenarios() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			out, err := Verify(&s, opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: %v (verdicts: %v)", s.Name, out.Elapsed.Round(time.Millisecond), out.Verdicts)
			if !out.Pass {
				t.Errorf("scenario %s failed:\n  %s", s.Name, strings.Join(out.Problems, "\n  "))
			}
		})
	}
}

// TestRepeatRunDeterminism reruns a randomness-consuming scenario (the
// lock convoy draws every hold time from the fault stream) and requires
// bit-identical verdicts: same seed, same diagnosis.
func TestRepeatRunDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism repeat-run skipped in -short")
	}
	spec, ok := ByName("lockconvoy")
	if !ok {
		t.Fatal("lockconvoy scenario missing from catalogue")
	}
	render := func(dir string) []string {
		diag, _, err := Run(spec, Options{WorkDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, w := range diag.Windows {
			out = append(out, w.Verdict, w.Window.Duration().String())
		}
		return out
	}
	a := render(t.TempDir())
	b := render(t.TempDir())
	if strings.Join(a, "|") != strings.Join(b, "|") {
		t.Errorf("same seed diverged:\nrun 1: %v\nrun 2: %v", a, b)
	}
	if len(a) == 0 {
		t.Error("lockconvoy produced no verdicts to compare")
	}
}
