package stream

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/gt-elba/milliscope/internal/faults"
	"github.com/gt-elba/milliscope/internal/transform"
)

// ProducerConfig parameterizes a log replay.
type ProducerConfig struct {
	// SrcDir holds a completed trial's monitor logs (the DES simulator
	// runs in virtual time, so a "live" run stages its logs first and
	// replays them at wall-clock pace).
	SrcDir string
	// DstDir receives the progressively growing copies the pipeline tails.
	DstDir string
	// Duration is the wall time over which the bytes are spread.
	Duration time.Duration
	// Plan selects which files replay — only the streamable ones; nil uses
	// the default declaration.
	Plan *transform.Plan
	// ChaosRate, a per-line probability in [0,1], corrupts the staged logs
	// with the fault-injection harness before replay when above 0
	// (deterministic per ChaosSeed): garbage lines, torn writes and
	// duplicated records then travel through the live pipeline, exercising
	// the quarantine budget under streaming.
	ChaosRate float64
	// ChaosSeed seeds the corruptor (default 1).
	ChaosSeed int64
	// RotateAt, in (0,1), truncates every event log to zero bytes when the
	// replay crosses that fraction — copytruncate-style rotation; 0 never
	// rotates. Bytes the tailer has not read by then are lost, exactly as
	// in production.
	RotateAt float64
	// Overload, when non-nil, reshapes the byte schedule with a burst (the
	// arrival-rate half of the overload injector; ConsumerDelay is applied
	// by the pipeline, not here). Nil auto-loads an overload.json sidecar
	// from SrcDir when one exists, so chaos-staged directories carry their
	// own load profile.
	Overload *faults.Overload
}

// replayTick is the replay's write cadence.
const replayTick = 10 * time.Millisecond

// replayFile is one file being progressively written.
type replayFile struct {
	name    string
	dst     string
	data    []byte
	written int
	event   bool
	rotated bool
}

// Producer replays a finished trial's logs into a directory at wall-clock
// pace, cutting at arbitrary byte boundaries — the tailer must cope with
// partial lines, because real log writers do not align flushes to records.
type Producer struct {
	cfg    ProducerConfig
	files  []*replayFile
	stopCh chan struct{}
	// ChaosReport is the corruption summary when ChaosRate > 0.
	ChaosReport *faults.Report
}

// NewProducer stages the replay: optionally corrupt the sources, read
// every streamable file into memory, and create the (empty) destination
// files so the pipeline registers all sources up front.
func NewProducer(cfg ProducerConfig) (*Producer, error) {
	if cfg.SrcDir == "" || cfg.DstDir == "" {
		return nil, fmt.Errorf("stream: producer needs SrcDir and DstDir")
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("stream: producer needs a positive Duration")
	}
	if !(cfg.ChaosRate >= 0 && cfg.ChaosRate <= 1) {
		return nil, fmt.Errorf("stream: ProducerConfig.ChaosRate %v outside [0, 1]", cfg.ChaosRate)
	}
	if !(cfg.RotateAt >= 0 && cfg.RotateAt < 1) {
		return nil, fmt.Errorf("stream: ProducerConfig.RotateAt %v outside [0, 1)", cfg.RotateAt)
	}
	if cfg.Plan == nil {
		cfg.Plan = transform.DefaultPlan()
	}
	if cfg.Overload == nil {
		if o, ok, err := faults.LoadOverloadSidecar(cfg.SrcDir); err != nil {
			return nil, err
		} else if ok {
			cfg.Overload = &o
		}
	}
	if cfg.Overload != nil {
		if err := cfg.Overload.Validate(); err != nil {
			return nil, err
		}
	}
	p := &Producer{cfg: cfg, stopCh: make(chan struct{})}

	srcDir := cfg.SrcDir
	if cfg.ChaosRate > 0 {
		seed := cfg.ChaosSeed
		if seed == 0 {
			seed = 1
		}
		stage := filepath.Join(cfg.DstDir + ".chaos")
		rep, err := faults.Corrupt(cfg.SrcDir, stage, faults.Config{
			Seed: seed, Rate: cfg.ChaosRate, Kinds: faults.LineKinds(),
		})
		if err != nil {
			return nil, err
		}
		p.ChaosReport = rep
		srcDir = stage
	}

	entries, err := os.ReadDir(srcDir)
	if err != nil {
		return nil, fmt.Errorf("stream: read replay source: %w", err)
	}
	if err := os.MkdirAll(cfg.DstDir, 0o755); err != nil {
		return nil, fmt.Errorf("stream: create replay dir: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && Streamable(cfg.Plan, e.Name()) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(srcDir, name))
		if err != nil {
			return nil, err
		}
		b, _ := cfg.Plan.Find(name)
		dst := filepath.Join(cfg.DstDir, name)
		written := 0
		// A restarted replay into the same directory resumes where it
		// left off: the staged bytes are deterministic per scenario and
		// seed, so an existing destination no larger than the source is
		// a prefix and only the remainder replays. Truncating instead
		// would make the tailer re-read a "new" file incarnation and the
		// warehouse would see every row twice.
		if fi, statErr := os.Stat(dst); statErr == nil && fi.Size() <= int64(len(data)) {
			written = int(fi.Size())
		} else if err := os.WriteFile(dst, nil, 0o644); err != nil {
			return nil, err
		}
		p.files = append(p.files, &replayFile{
			name: name, dst: dst, data: data, written: written,
			event: b.TableSuffix == "event",
		})
	}
	if len(p.files) == 0 {
		return nil, fmt.Errorf("stream: nothing streamable in %s", srcDir)
	}
	return p, nil
}

// Run blocks until every byte is replayed (or Stop is called). Bytes are
// written in proportion to elapsed wall time.
func (p *Producer) Run() error {
	start := time.Now()
	ticker := time.NewTicker(replayTick)
	defer ticker.Stop()
	for {
		select {
		case <-p.stopCh:
			return nil
		case <-ticker.C:
		}
		frac := float64(time.Since(start)) / float64(p.cfg.Duration)
		if frac > 1 {
			frac = 1
		}
		wall := frac
		if p.cfg.Overload != nil {
			// The burst compresses a slice of the trial into a fraction of
			// the wall clock: byte position leads wall position inside the
			// burst window, deterministically.
			frac = p.cfg.Overload.EffectiveFrac(frac)
		}
		if p.cfg.RotateAt > 0 && wall >= p.cfg.RotateAt {
			if err := p.rotate(); err != nil {
				return err
			}
		}
		if err := p.writeUpTo(frac); err != nil {
			return err
		}
		if frac >= 1 {
			return nil
		}
	}
}

// Stop aborts the replay.
func (p *Producer) Stop() { close(p.stopCh) }

func (p *Producer) writeUpTo(frac float64) error {
	for _, f := range p.files {
		target := int(frac * float64(len(f.data)))
		if target <= f.written {
			continue
		}
		fh, err := os.OpenFile(f.dst, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		_, err = fh.Write(f.data[f.written:target])
		if cerr := fh.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		f.written = target
	}
	return nil
}

// rotate truncates every event log once — the copytruncate rotation the
// tailer must detect by the size dropping below its offset.
func (p *Producer) rotate() error {
	for _, f := range p.files {
		if !f.event || f.rotated {
			continue
		}
		f.rotated = true
		if err := os.Truncate(f.dst, 0); err != nil {
			return err
		}
	}
	return nil
}
