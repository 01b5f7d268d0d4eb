package core

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestPaperTrialLogDigests pins the SHA-256 of every log file RunExperiment
// writes for each catalogue trial, so moving where a trial or a fault kind
// is declared cannot change what it generates. Run with -update to
// regenerate.
func TestPaperTrialLogDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every catalogue trial")
	}
	var b strings.Builder
	for _, spec := range Scenarios() {
		dir := t.TempDir()
		if _, err := RunExperiment(catalogueTrial(spec.Name, dir)); err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		var files []string
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				files = append(files, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(files)
		for _, path := range files {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			rel, _ := filepath.Rel(dir, path)
			fmt.Fprintf(&b, "%s/%s %x\n", spec.Name, filepath.ToSlash(rel), sha256.Sum256(data))
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "golden", "trial_log_digests.txt")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("trial logs differ:\n got:\n%s\nwant:\n%s", got, want)
	}
}
