package core

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/selfobs"
	"github.com/gt-elba/milliscope/internal/transform"
)

// TestSelfTraceBreakdown drives the whole dogfood loop with hand-picked
// span intervals: format telemetry with selfobs, ingest the log through
// the ordinary pipeline, and check the per-stage critical-path math —
// interval union (BusyUS) versus summed duration (TotalUS) — against
// values computable by eye.
func TestSelfTraceBreakdown(t *testing.T) {
	epoch := time.Date(2017, 4, 1, 0, 0, 0, 0, time.UTC)
	ms := int64(time.Millisecond)
	recs := []struct {
		batch string
		r     selfobs.Rec
	}{
		// Two workers' parses overlap 5ms: total 20ms, busy 15ms.
		{"b1", selfobs.Rec{Kind: "span", Pipeline: "ingest", Stage: "parse",
			Span: "whole", File: "a.log", StartNS: 0, DurNS: 10 * ms, Items: 100}},
		{"b1", selfobs.Rec{Kind: "span", Pipeline: "ingest", Stage: "parse",
			Span: "whole", File: "b.log", StartNS: 5 * ms, DurNS: 10 * ms, Items: 200, Errs: 1}},
		// Append runs after: busy 5ms; batch wall = 0..20ms.
		{"b1", selfobs.Rec{Kind: "span", Pipeline: "ingest", Stage: "append",
			Span: "seq", File: "a.log", StartNS: 15 * ms, DurNS: 5 * ms, Items: 300}},
		{"b1", selfobs.Rec{Kind: "counter", Pipeline: "live", Stage: "watermark",
			Span: "advances", StartNS: 20 * ms, Items: 42}},
		// A second batch in the same log groups separately.
		{"b2", selfobs.Rec{Kind: "span", Pipeline: "trace", Stage: "join",
			Span: "-", StartNS: 30 * ms, DurNS: 2 * ms, Items: 7}},
	}
	var log strings.Builder
	for _, x := range recs {
		log.WriteString(selfobs.FormatLine(epoch, x.batch, x.r))
		log.WriteByte('\n')
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "mscope_selftrace.log"),
		[]byte(log.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	db := mscopedb.Open()
	if _, err := transform.IngestDirWithOptions(db, dir, t.TempDir(),
		transform.DefaultPlan(), transform.Options{}); err != nil {
		t.Fatalf("ingest: %v", err)
	}

	batches, err := SelfTraceBreakdown(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 2 {
		t.Fatalf("got %d batches, want 2: %+v", len(batches), batches)
	}
	b1 := batches[0]
	if b1.Batch != "b1" || b1.Table != "mscope_selftrace" {
		t.Fatalf("first batch %q in %q", b1.Batch, b1.Table)
	}
	if b1.Spans != 3 || b1.WallUS != 20000 {
		t.Fatalf("b1 spans=%d wall=%dus, want 3 spans over 20000us", b1.Spans, b1.WallUS)
	}
	if len(b1.Stages) != 2 {
		t.Fatalf("b1 stages: %+v", b1.Stages)
	}
	cp := b1.Stages[0] // largest BusyUS first
	if cp.Pipeline != "ingest" || cp.Stage != "parse" {
		t.Fatalf("critical path stage %s/%s", cp.Pipeline, cp.Stage)
	}
	if cp.Spans != 2 || cp.Items != 300 || cp.Errs != 1 {
		t.Fatalf("parse agg %+v", cp)
	}
	if cp.TotalUS != 20000 || cp.BusyUS != 15000 || cp.MaxUS != 10000 {
		t.Fatalf("parse timing total=%d busy=%d max=%d", cp.TotalUS, cp.BusyUS, cp.MaxUS)
	}
	if cp.Share != 0.75 {
		t.Fatalf("parse share %v, want 0.75", cp.Share)
	}
	ap := b1.Stages[1]
	if ap.Stage != "append" || ap.BusyUS != 5000 || ap.Share != 0.25 {
		t.Fatalf("append agg %+v", ap)
	}
	if len(b1.Counters) != 1 || b1.Counters[0].Name != "advances" || b1.Counters[0].Value != 42 {
		t.Fatalf("counters %+v", b1.Counters)
	}
	b2 := batches[1]
	if b2.Batch != "b2" || b2.Spans != 1 || b2.WallUS != 2000 {
		t.Fatalf("b2 %+v", b2)
	}

	var buf bytes.Buffer
	if err := RenderSelfTrace(&buf, batches); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"batch b1 (mscope_selftrace): 3 spans over 20.000ms wall",
		"parse", "75.0", "counter live/watermark advances = 42",
		"batch b2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}

	// Empty warehouse: no error, explicit empty-state message.
	empty, err := SelfTraceBreakdown(mscopedb.Open())
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty warehouse: %v %v", empty, err)
	}
	buf.Reset()
	if err := RenderSelfTrace(&buf, empty); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no self-telemetry") {
		t.Fatalf("empty render: %q", buf.String())
	}
}

var update = flag.Bool("update", false, "rewrite the goldens under testdata/golden")

// TestSelfTraceRenderGolden pins both self-trace renders byte for byte on a
// two-node fixture with counters, concurrent spans of one stage, an
// equal-busy tie and a counter-only batch. Run with -update to regenerate.
func TestSelfTraceRenderGolden(t *testing.T) {
	epoch := time.Date(2017, 4, 1, 0, 0, 0, 0, time.UTC)
	ms, us := int64(time.Millisecond), int64(time.Microsecond)
	type rec struct {
		batch string
		r     selfobs.Rec
	}
	logs := map[string][]rec{
		"agent-a_selftrace.log": {
			{"a1", selfobs.Rec{Kind: "span", Pipeline: "agent", Stage: "parse", Span: "f",
				File: "x.log", StartNS: 1 * ms, DurNS: 4*ms + 250*us, Items: 120}},
			{"a1", selfobs.Rec{Kind: "span", Pipeline: "agent", Stage: "parse", Span: "f",
				File: "y.log", StartNS: 3 * ms, DurNS: 5 * ms, Items: 80, Errs: 2}},
			{"a1", selfobs.Rec{Kind: "span", Pipeline: "agent", Stage: "ship", Span: "batch",
				StartNS: 9 * ms, DurNS: 1*ms + 500*us, Items: 200}},
			{"a1", selfobs.Rec{Kind: "span", Pipeline: "agent", Stage: "tail", Span: "poll",
				StartNS: 0, DurNS: 1*ms + 500*us, Items: 3}},
			{"a1", selfobs.Rec{Kind: "counter", Pipeline: "agent", Stage: "wire", Span: "reconnects",
				StartNS: 11 * ms, Items: 1}},
			{"a1", selfobs.Rec{Kind: "counter", Pipeline: "agent", Stage: "wire", Span: "batches",
				StartNS: 11 * ms, Items: 4}},
			{"a2", selfobs.Rec{Kind: "counter", Pipeline: "agent", Stage: "wire", Span: "batches",
				StartNS: 40 * ms, Items: 0}},
		},
		"collector_selftrace.log": {
			{"c1", selfobs.Rec{Kind: "span", Pipeline: "collector", Stage: "decode", Span: "frame",
				StartNS: 10 * ms, DurNS: 2 * ms, Items: 200}},
			{"c1", selfobs.Rec{Kind: "span", Pipeline: "collector", Stage: "append", Span: "block",
				StartNS: 11 * ms, DurNS: 3 * ms, Items: 200}},
			{"c1", selfobs.Rec{Kind: "span", Pipeline: "collector", Stage: "append", Span: "block",
				StartNS: 12 * ms, DurNS: 1 * ms, Items: 50, Errs: 1}},
			{"c1", selfobs.Rec{Kind: "span", Pipeline: "collector", Stage: "ack", Span: "-",
				StartNS: 14 * ms, DurNS: 2 * ms, Items: 2}},
			{"c1", selfobs.Rec{Kind: "counter", Pipeline: "collector", Stage: "conn", Span: "accepted",
				StartNS: 16 * ms, Items: 2}},
		},
	}
	dir := t.TempDir()
	for name, recs := range logs {
		var b strings.Builder
		for _, x := range recs {
			b.WriteString(selfobs.FormatLine(epoch, x.batch, x.r))
			b.WriteByte('\n')
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	db := mscopedb.Open()
	if _, err := transform.IngestDirWithOptions(db, dir, t.TempDir(),
		transform.DefaultPlan(), transform.Options{}); err != nil {
		t.Fatalf("ingest: %v", err)
	}

	batches, err := SelfTraceBreakdown(db)
	if err != nil {
		t.Fatal(err)
	}
	var perBatch bytes.Buffer
	if err := RenderSelfTrace(&perBatch, batches); err != nil {
		t.Fatal(err)
	}
	ft, err := FleetSelfTraceBreakdown(db)
	if err != nil {
		t.Fatal(err)
	}
	var fleet bytes.Buffer
	if err := RenderFleetSelfTrace(&fleet, ft); err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string][]byte{
		"selftrace_batches.txt": perBatch.Bytes(),
		"selftrace_fleet.txt":   fleet.Bytes(),
	} {
		path := filepath.Join("testdata", "golden", name)
		if *update {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to create)", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs:\n got:\n%s\nwant:\n%s", name, got, want)
		}
	}
}
