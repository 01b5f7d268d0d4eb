// Package faults is the deterministic log corruptor behind the chaos
// harness: it copies a monitor-log directory while injecting the failure
// modes production log pipelines actually see — garbage lines from
// interleaved writers, records torn mid-write, files truncated by
// rotation, duplicated flush buffers, tiers whose logs never arrived,
// bounded cross-node clock skew, and resource-monitor sampling gaps.
//
// Every mutation is drawn from a PRNG seeded by Config.Seed mixed with the
// file name, so the same seed over the same input directory produces a
// byte-identical corrupted directory — chaos trials are replayable and the
// degraded-mode ingest tests can assert exact quarantine counts.
package faults

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Kind names one injectable fault class.
type Kind string

// The fault classes the corruptor can inject.
const (
	// KindGarbage inserts unparseable junk lines (an interleaved foreign
	// writer, a crashed process dumping into the log).
	KindGarbage Kind = "garbage"
	// KindTorn splits a line across two lines mid-byte (a partial write
	// flushed before the record completed).
	KindTorn Kind = "torn"
	// KindDuplicate repeats a line (a rewritten flush buffer).
	KindDuplicate Kind = "duplicate"
	// KindTruncate cuts the file tail mid-record (rotation or a monitor
	// killed mid-write). Multi-line logs lose a partial record; single-line
	// logs keep half of their final line.
	KindTruncate Kind = "truncate"
	// KindSkew shifts a tier's event timestamps by a bounded per-tier
	// offset (unsynchronized node clocks). The front tier is never skewed:
	// it is the reference clock.
	KindSkew Kind = "skew"
	// KindGap deletes a contiguous run of resource-monitor samples (a
	// wedged collector).
	KindGap Kind = "gap"
	// KindDeleteTier removes the event logs of the tiers listed in
	// Config.DeleteTiers (a monitor that never shipped its file).
	KindDeleteTier Kind = "delete-tier"
)

// LineKinds are the per-line faults governed by Config.Rate.
func LineKinds() []Kind { return []Kind{KindGarbage, KindTorn, KindDuplicate} }

// AllKinds lists every fault class.
func AllKinds() []Kind {
	return []Kind{KindGarbage, KindTorn, KindDuplicate, KindTruncate,
		KindSkew, KindGap, KindDeleteTier}
}

// ParseKinds converts a comma-separated kind list ("garbage,torn") to
// kinds, validating each name.
func ParseKinds(s string) ([]Kind, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	known := make(map[Kind]bool)
	for _, k := range AllKinds() {
		known[k] = true
	}
	var out []Kind
	for _, part := range strings.Split(s, ",") {
		k := Kind(strings.TrimSpace(part))
		if !known[k] {
			return nil, fmt.Errorf("faults: unknown fault kind %q", k)
		}
		out = append(out, k)
	}
	return out, nil
}

// Config parameterizes one corruption pass.
type Config struct {
	// Seed drives every random choice; same seed + same input directory ⇒
	// byte-identical output directory.
	Seed int64
	// Rate is the per-line probability, in [0, 1], of a line fault
	// (garbage, torn, duplicate) on event logs.
	Rate float64
	// Kinds enables fault classes; nil enables the line kinds plus
	// truncation (the defaults a plain `mscope chaos` run injects).
	Kinds []Kind
	// SkewMax bounds the per-tier clock offset drawn for KindSkew; zero
	// means the 2ms default.
	SkewMax time.Duration
	// GapFraction is the fraction, in [0, 1], of resource-monitor samples
	// KindGap deletes; zero means the 8% default.
	GapFraction float64
	// DeleteTiers lists tiers whose event logs KindDeleteTier removes.
	DeleteTiers []string
}

// DefaultSkewMax bounds per-tier clock skew when Config.SkewMax is zero.
const DefaultSkewMax = 2 * time.Millisecond

// DefaultGapFraction is the resource-monitor sample loss when
// Config.GapFraction is zero.
const DefaultGapFraction = 0.08

// FileReport records what happened to one input file.
type FileReport struct {
	// Name is the file's base name.
	Name string
	// Injected counts injected faults per kind. Garbage, torn and
	// duplicate count affected lines; truncate counts dropped lines; gap
	// counts deleted sample rows.
	Injected map[Kind]int
	// SkewMicros is the clock offset applied to the file's timestamps.
	SkewMicros int64
	// Deleted marks a file removed by KindDeleteTier.
	Deleted bool
}

// Report summarizes one corruption pass over a directory.
type Report struct {
	Seed  int64
	Files []FileReport
}

// Total sums one kind's injections across all files.
func (r *Report) Total(k Kind) int {
	n := 0
	for _, f := range r.Files {
		n += f.Injected[k]
	}
	return n
}

// Summary renders the report for CLI output.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos pass (seed %d):\n", r.Seed)
	for _, f := range r.Files {
		if f.Deleted {
			fmt.Fprintf(&b, "  %-24s DELETED\n", f.Name)
			continue
		}
		var parts []string
		for _, k := range AllKinds() {
			if n := f.Injected[k]; n > 0 {
				parts = append(parts, fmt.Sprintf("%s=%d", k, n))
			}
		}
		if f.SkewMicros != 0 {
			parts = append(parts, fmt.Sprintf("skew=%+dµs", f.SkewMicros))
		}
		if len(parts) == 0 {
			parts = append(parts, "clean")
		}
		fmt.Fprintf(&b, "  %-24s %s\n", f.Name, strings.Join(parts, " "))
	}
	return b.String()
}

// fileClass tells the corruptor which faults apply to a file.
type fileClass int

const (
	classOther fileClass = iota
	// classEventLine: single-line event logs (Apache, Tomcat, C-JDBC).
	classEventLine
	// classEventRecord: the five-line MySQL slow-log records.
	classEventRecord
	// classResmon: line-oriented resource-monitor samples.
	classResmon
)

// classify maps a file name to its fault class and header-line count.
func classify(name string) (fileClass, int) {
	switch {
	case strings.HasSuffix(name, "_access.log"),
		strings.HasSuffix(name, "_mscope.log"),
		strings.HasSuffix(name, "_ctrl.log"):
		return classEventLine, 0
	case strings.HasSuffix(name, "_slow.log"):
		return classEventRecord, 3
	case strings.HasSuffix(name, "_collectl.csv"):
		return classResmon, 1
	case strings.HasSuffix(name, "_iostat.log"),
		strings.HasSuffix(name, "_pidstat.log"),
		strings.HasSuffix(name, "_collectl.log"),
		strings.HasSuffix(name, "_sar.log"):
		// Conservative header allowance: banner plus column header.
		return classResmon, 3
	default:
		// sar XML and non-log artifacts pass through unmodified: corrupting
		// structured XML means losing the document, not degrading it.
		return classOther, 0
	}
}

// tierOf derives the tier from a log file name ("mysql_slow.log" → "mysql").
func tierOf(name string) string {
	if i := strings.IndexByte(name, '_'); i > 0 {
		return name[:i]
	}
	return name
}

// Corrupt copies srcDir into dstDir, injecting the configured faults, and
// reports exactly what it injected where. dstDir is created; existing files
// in it are overwritten. A Rate or GapFraction outside [0, 1] is refused
// before anything is read or written.
func Corrupt(srcDir, dstDir string, cfg Config) (*Report, error) {
	if !(cfg.Rate >= 0 && cfg.Rate <= 1) {
		return nil, fmt.Errorf("faults: Config.Rate %v outside [0, 1]", cfg.Rate)
	}
	if !(cfg.GapFraction >= 0 && cfg.GapFraction <= 1) {
		return nil, fmt.Errorf("faults: Config.GapFraction %v outside [0, 1]", cfg.GapFraction)
	}
	kinds := cfg.Kinds
	if kinds == nil {
		kinds = append(LineKinds(), KindTruncate)
	}
	enabled := make(map[Kind]bool, len(kinds))
	for _, k := range kinds {
		enabled[k] = true
	}
	skewMax := cfg.SkewMax
	if skewMax == 0 {
		skewMax = DefaultSkewMax
	}
	gapFrac := cfg.GapFraction
	if gapFrac == 0 {
		gapFrac = DefaultGapFraction
	}
	deleteTier := make(map[string]bool, len(cfg.DeleteTiers))
	for _, t := range cfg.DeleteTiers {
		deleteTier[t] = true
	}

	entries, err := os.ReadDir(srcDir)
	if err != nil {
		return nil, fmt.Errorf("faults: read source dir: %w", err)
	}
	if err := os.MkdirAll(dstDir, 0o755); err != nil {
		return nil, fmt.Errorf("faults: create output dir: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)

	rep := &Report{Seed: cfg.Seed}
	for _, name := range names {
		fr := FileReport{Name: name, Injected: make(map[Kind]int)}
		class, header := classify(name)
		tier := tierOf(name)
		isEvent := class == classEventLine || class == classEventRecord

		if enabled[KindDeleteTier] && isEvent && deleteTier[tier] {
			fr.Deleted = true
			rep.Files = append(rep.Files, fr)
			continue
		}

		data, err := os.ReadFile(filepath.Join(srcDir, name))
		if err != nil {
			return nil, fmt.Errorf("faults: read %s: %w", name, err)
		}
		rng := rand.New(rand.NewSource(cfg.Seed ^ int64(fnvHash(name))))

		if class != classOther {
			lines := splitLines(data)
			switch {
			case isEvent:
				if enabled[KindSkew] && tier != "apache" {
					// One offset per tier so every file of the tier shifts
					// together, drawn from the tier name for stability.
					off := tierSkew(cfg.Seed, tier, skewMax)
					lines = applySkew(lines, class, off)
					fr.SkewMicros = off
				}
				lines = injectLineFaults(lines, header, cfg.Rate, enabled, rng, &fr)
				if enabled[KindTruncate] {
					lines = truncateTail(lines, class, header, rng, &fr)
				}
			case class == classResmon:
				if enabled[KindGap] {
					lines = cutGap(lines, header, gapFrac, rng, &fr)
				}
			}
			data = joinLines(lines)
		}

		if err := os.WriteFile(filepath.Join(dstDir, name), data, 0o644); err != nil {
			return nil, fmt.Errorf("faults: write %s: %w", name, err)
		}
		rep.Files = append(rep.Files, fr)
	}
	return rep, nil
}

// fnvHash mixes a file name into the seed.
func fnvHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// tierSkew draws the tier's bounded clock offset in microseconds.
func tierSkew(seed int64, tier string, max time.Duration) int64 {
	rng := rand.New(rand.NewSource(seed ^ int64(fnvHash("skew/"+tier))))
	bound := max.Microseconds()
	if bound <= 0 {
		return 0
	}
	return rng.Int63n(2*bound+1) - bound
}

// splitLines splits on '\n', preserving a trailing empty slice when the
// data ends with a newline so joinLines round-trips exactly.
func splitLines(data []byte) [][]byte {
	return bytes.Split(data, []byte("\n"))
}

func joinLines(lines [][]byte) []byte {
	return bytes.Join(lines, []byte("\n"))
}

// isContent reports whether a line index holds fault-eligible content: past
// the header and non-empty.
func isContent(lines [][]byte, i, header int) bool {
	return i >= header && len(bytes.TrimSpace(lines[i])) > 0
}

// injectLineFaults applies the per-line fault kinds at the configured rate.
func injectLineFaults(lines [][]byte, header int, rate float64, enabled map[Kind]bool, rng *rand.Rand, fr *FileReport) [][]byte {
	var lineKinds []Kind
	for _, k := range LineKinds() {
		if enabled[k] {
			lineKinds = append(lineKinds, k)
		}
	}
	if len(lineKinds) == 0 || rate <= 0 {
		return lines
	}
	out := make([][]byte, 0, len(lines))
	for i, line := range lines {
		if !isContent(lines, i, header) || rng.Float64() >= rate {
			out = append(out, line)
			continue
		}
		switch k := lineKinds[rng.Intn(len(lineKinds))]; k {
		case KindGarbage:
			out = append(out, garbageLine(rng), line)
			fr.Injected[KindGarbage]++
		case KindTorn:
			if len(line) < 2 {
				out = append(out, line)
				continue
			}
			cut := 1 + rng.Intn(len(line)-1)
			out = append(out, line[:cut], line[cut:])
			fr.Injected[KindTorn]++
		case KindDuplicate:
			out = append(out, line, line)
			fr.Injected[KindDuplicate]++
		}
	}
	return out
}

// garbageLine fabricates an unparseable line: binary junk bracketing a
// deterministic marker, so quarantine files are recognizable in tests.
func garbageLine(rng *rand.Rand) []byte {
	return []byte(fmt.Sprintf("\x00\x1f\x7f<<chaos-garbage %08x>>\x00", rng.Uint32()))
}

// truncateTail simulates rotation: cut the file so its final record is
// incomplete. Multi-line logs keep a prefix of their last record;
// single-line logs keep half of their final line.
func truncateTail(lines [][]byte, class fileClass, header int, rng *rand.Rand, fr *FileReport) [][]byte {
	// Find the content line indices.
	var content []int
	for i := range lines {
		if isContent(lines, i, header) {
			content = append(content, i)
		}
	}
	if len(content) < 2 {
		return lines
	}
	last := content[len(content)-1]
	switch class {
	case classEventRecord:
		// Walk back to the last record boundary ("# Time:"), keep 1–4 of
		// its five lines.
		start := -1
		for j := len(content) - 1; j >= 0; j-- {
			if bytes.HasPrefix(lines[content[j]], []byte("# Time:")) {
				start = content[j]
				break
			}
		}
		if start < 0 {
			return lines
		}
		keep := start + 1 + rng.Intn(3) // boundary line plus 0–2 more
		if keep > last {
			return lines
		}
		fr.Injected[KindTruncate] += last - keep + 1
		return append(lines[:keep:keep], []byte{})
	default:
		line := lines[last]
		if len(line) < 2 {
			return lines
		}
		cut := lines[:last:last]
		cut = append(cut, line[:len(line)/2], []byte{})
		fr.Injected[KindTruncate]++
		return cut
	}
}

// cutGap deletes a contiguous run of resource samples from the middle of
// the file.
func cutGap(lines [][]byte, header int, frac float64, rng *rand.Rand, fr *FileReport) [][]byte {
	var content []int
	for i := range lines {
		if isContent(lines, i, header) {
			content = append(content, i)
		}
	}
	gap := int(frac * float64(len(content)))
	if gap < 1 || len(content) <= gap+2 {
		return lines
	}
	// Keep the first and last samples so the series span survives.
	startIdx := 1 + rng.Intn(len(content)-gap-1)
	cutFrom, cutTo := content[startIdx], content[startIdx+gap-1]
	out := make([][]byte, 0, len(lines)-gap)
	out = append(out, lines[:cutFrom]...)
	out = append(out, lines[cutTo+1:]...)
	fr.Injected[KindGap] += gap
	return out
}

// Timestamp-rewriting patterns per event-log format.
var (
	upperBoundary = regexp.MustCompile(`\b(UA|UD|DS|DR)=(\d+)`)
	lowerBoundary = regexp.MustCompile(`\b(ua|ud|ds|dr)=(\d+)`)
	slowTime      = regexp.MustCompile(`^# Time: (\S+)$`)
	slowSetTS     = regexp.MustCompile(`^SET timestamp=(\d+);$`)
)

// mysqlTimeLayout mirrors the slow-log "# Time:" encoding.
const mysqlTimeLayout = "2006-01-02T15:04:05.000000Z"

// applySkew shifts every boundary timestamp in the file by off
// microseconds.
func applySkew(lines [][]byte, class fileClass, off int64) [][]byte {
	if off == 0 {
		return lines
	}
	shift := func(m [][]byte) []byte {
		v, err := strconv.ParseInt(string(m[2]), 10, 64)
		if err != nil || v == 0 {
			return append(append([]byte{}, m[1]...), append([]byte("="), m[2]...)...)
		}
		return []byte(fmt.Sprintf("%s=%d", m[1], v+off))
	}
	out := make([][]byte, len(lines))
	for i, line := range lines {
		switch {
		case class == classEventLine:
			line = replaceAllSubmatch(upperBoundary, line, shift)
			line = replaceAllSubmatch(lowerBoundary, line, shift)
		case class == classEventRecord:
			if m := slowTime.FindSubmatch(line); m != nil {
				if ts, err := time.Parse(mysqlTimeLayout, string(m[1])); err == nil {
					ts = ts.Add(time.Duration(off) * time.Microsecond)
					line = []byte("# Time: " + ts.UTC().Format(mysqlTimeLayout))
				}
			} else if m := slowSetTS.FindSubmatch(line); m != nil {
				if v, err := strconv.ParseInt(string(m[1]), 10, 64); err == nil {
					line = []byte(fmt.Sprintf("SET timestamp=%d;", v+off/1_000_000))
				}
			}
		}
		out[i] = line
	}
	return out
}

// replaceAllSubmatch is ReplaceAllFunc with submatch access.
func replaceAllSubmatch(re *regexp.Regexp, src []byte, fn func([][]byte) []byte) []byte {
	return re.ReplaceAllFunc(src, func(match []byte) []byte {
		return fn(re.FindSubmatch(match))
	})
}
