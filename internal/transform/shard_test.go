package transform

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/gt-elba/milliscope/internal/logfmt"
	"github.com/gt-elba/milliscope/internal/mxml"
	"github.com/gt-elba/milliscope/internal/parsers"
	"github.com/gt-elba/milliscope/internal/simtime"
)

// region is a comparable projection of parsers.Malformed (errors compare
// by message).
type region struct {
	Line int
	Text string
	Err  string
}

func projectRegions(ms []parsers.Malformed) []region {
	out := make([]region, 0, len(ms))
	for _, m := range ms {
		out = append(out, region{Line: m.Line, Text: m.Text, Err: fmt.Sprint(m.Err)})
	}
	return out
}

// serialParse is the reference: the whole-file parse a one-worker ingest
// runs, observed the same way parseSharded reports its results.
func serialParse(p parsers.Parser, data []byte, instr parsers.Instructions, degraded bool) ([]mxml.Entry, []parsers.Malformed, error) {
	var entries []mxml.Entry
	var regions []parsers.Malformed
	emit := func(e mxml.Entry) error { entries = append(entries, e); return nil }
	if degraded {
		dp, ok := p.(parsers.DegradedParser)
		if !ok {
			return nil, nil, fmt.Errorf("parser %s has no degraded mode", p.Name())
		}
		err := dp.ParseDegraded(bytes.NewReader(data), instr, emit, func(m parsers.Malformed) error {
			regions = append(regions, m)
			return nil
		})
		return entries, regions, err
	}
	err := p.Parse(bytes.NewReader(data), instr, emit)
	return entries, regions, err
}

// shardedParse plans shards at the given chunk size and runs the parallel
// stitched parse.
func shardedParse(t testing.TB, cp parsers.ChunkParser, data []byte, instr parsers.Instructions, degraded bool, chunkSize int) ([]mxml.Entry, []parsers.Malformed, error) {
	bnd, ok := cp.Chunkable(instr)
	if !ok {
		t.Fatalf("parser %s not chunkable", cp.Name())
	}
	shards := planShards(data, bnd, chunkSize)
	return parseSharded(context.Background(), make(semaphore, 4), cp, shards, instr, degraded, nil, "")
}

// assertParseEquivalent fails unless the sharded parse produced exactly
// the serial parse's entries, malformed regions, and error.
func assertParseEquivalent(t *testing.T, p parsers.Parser, data []byte, instr parsers.Instructions, degraded bool, chunkSize int) {
	t.Helper()
	cp, ok := p.(parsers.ChunkParser)
	if !ok {
		t.Fatalf("parser %s is not a ChunkParser", p.Name())
	}
	wantE, wantR, wantErr := serialParse(p, data, instr, degraded)
	gotE, gotR, gotErr := shardedParse(t, cp, data, instr, degraded, chunkSize)
	if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
		t.Fatalf("chunk %d: sharded err %v, serial err %v", chunkSize, gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	if len(gotE) != len(wantE) {
		t.Fatalf("chunk %d: sharded %d entries, serial %d", chunkSize, len(gotE), len(wantE))
	}
	for i := range wantE {
		if !reflect.DeepEqual(gotE[i], wantE[i]) {
			t.Fatalf("chunk %d: entry %d differs:\nsharded %+v\nserial  %+v", chunkSize, i, gotE[i], wantE[i])
		}
	}
	if !reflect.DeepEqual(projectRegions(gotR), projectRegions(wantR)) {
		t.Fatalf("chunk %d: quarantined regions differ:\nsharded %+v\nserial  %+v",
			chunkSize, projectRegions(gotR), projectRegions(wantR))
	}
}

// apacheCorpus renders count access-log lines; every corruptEvery-th line
// (when >0) is replaced with garbage the token pattern rejects.
func apacheCorpus(count, corruptEvery int) []byte {
	var b strings.Builder
	for i := 0; i < count; i++ {
		if corruptEvery > 0 && i%corruptEvery == corruptEvery-1 {
			fmt.Fprintf(&b, "!! torn line %d ¡garbage¿\n", i)
			continue
		}
		ua := simtime.Epoch.Add(time.Duration(i) * 3 * time.Millisecond)
		ud := ua.Add(time.Duration(i%7+1) * time.Millisecond)
		ds := ua.Add(500 * time.Microsecond)
		b.WriteString(logfmt.ApacheAccess("10.0.0.2", "GET", fmt.Sprintf("/item/%d?rid=req-%d", i, i), 200, 1000+i, ua, ud, ds, ud))
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// mysqlCorpus renders the slow-log preamble plus count records. Corruption
// alternates between garbage inside a record and a boundary-lookalike
// "# Time:" line whose timestamp cannot decode — the case that forces a
// shard cut to land mid-record and exercises the tail re-parse.
func mysqlCorpus(count, corruptEvery int) []byte {
	var b strings.Builder
	b.WriteString(logfmt.MySQLHeader())
	for i := 0; i < count; i++ {
		ua := simtime.Epoch.Add(time.Duration(i) * 5 * time.Millisecond)
		ud := ua.Add(time.Duration(i%5+1) * time.Millisecond)
		rec := logfmt.MySQLSlowRecord(100+i, ua, ud, 3, 40,
			"SELECT * FROM items WHERE id=7", fmt.Sprintf("req-%d", i), i%4)
		if corruptEvery > 0 && i%corruptEvery == corruptEvery-1 {
			if i%2 == 0 {
				// Garbage line torn into the middle of the record.
				lines := strings.SplitAfter(rec, "\n")
				rec = strings.Join(lines[:2], "") + "@@corrupted@@\n" + strings.Join(lines[2:], "")
			} else {
				// A record-boundary lookalike that fails semantically.
				rec = "# Time: not-a-timestamp\n" + rec[strings.Index(rec, "\n")+1:]
			}
		}
		b.WriteString(rec)
	}
	return []byte(b.String())
}

var shardChunkSizes = []int{1, 16, 100, 512, 4 << 10, 64 << 10}

func TestPlanShardsReassemble(t *testing.T) {
	data := mysqlCorpus(120, 0)
	p, _ := parsers.Get("mysql-slow")
	bnd, ok := p.(parsers.ChunkParser).Chunkable(parsers.Instructions{})
	if !ok {
		t.Fatal("mysql-slow not chunkable")
	}
	for _, cs := range shardChunkSizes {
		shards := planShards(data, bnd, cs)
		var joined []byte
		line := 1
		for _, s := range shards {
			if s.startLine != line {
				t.Fatalf("chunk %d: shard start line %d, want %d", cs, s.startLine, line)
			}
			line += bytes.Count(s.data, []byte{'\n'})
			joined = append(joined, s.data...)
		}
		if !bytes.Equal(joined, data) {
			t.Fatalf("chunk %d: shards do not reassemble the input (%d vs %d bytes)", cs, len(joined), len(data))
		}
	}
}

func TestPlanShardsCutsOnRecordBoundaries(t *testing.T) {
	data := mysqlCorpus(200, 0)
	p, _ := parsers.Get("mysql-slow")
	bnd, _ := p.(parsers.ChunkParser).Chunkable(parsers.Instructions{})
	shards := planShards(data, bnd, 1024)
	if len(shards) < 3 {
		t.Fatalf("expected several shards, got %d", len(shards))
	}
	for i, s := range shards[1:] {
		if !bytes.HasPrefix(s.data, []byte("# Time: ")) {
			t.Fatalf("shard %d does not start at a record boundary: %q...", i+1, s.data[:min(40, len(s.data))])
		}
	}
}

func TestShardedApacheMatchesSerial(t *testing.T) {
	instr := parsers.ApacheInstructions()
	p, _ := parsers.Get("token")
	for _, corrupt := range []int{0, 7} {
		data := apacheCorpus(300, corrupt)
		for _, degraded := range []bool{false, true} {
			for _, cs := range shardChunkSizes {
				assertParseEquivalent(t, p, data, instr, degraded, cs)
			}
		}
	}
}

func TestShardedMySQLSlowMatchesSerial(t *testing.T) {
	p, _ := parsers.Get("mysql-slow")
	for _, corrupt := range []int{0, 5} {
		data := mysqlCorpus(150, corrupt)
		for _, degraded := range []bool{false, true} {
			for _, cs := range shardChunkSizes {
				assertParseEquivalent(t, p, data, parsers.Instructions{Const: map[string]string{"host": "mysql"}}, degraded, cs)
			}
		}
	}
}

// TestShardedHeaderNotDoubleCounted pins the absolute-line-number
// mechanism: with a chunk size smaller than the header, cuts land inside
// the header region, and the rows must come out identical anyway.
func TestShardedHeaderNotDoubleCounted(t *testing.T) {
	p, _ := parsers.Get("mysql-slow")
	data := mysqlCorpus(20, 0)
	for _, cs := range []int{1, 8, 24} {
		assertParseEquivalent(t, p, data, parsers.Instructions{}, false, cs)
	}
}

// TestShardedTruncatedFileMatchesSerial: a file ending mid-record must
// report the same truncation error (fail-fast) or quarantined tail
// (degraded) as serial, not silently drop the partial record.
func TestShardedTruncatedFileMatchesSerial(t *testing.T) {
	p, _ := parsers.Get("mysql-slow")
	data := mysqlCorpus(60, 0)
	data = data[:len(data)-25] // tear the final record
	for _, degraded := range []bool{false, true} {
		for _, cs := range shardChunkSizes {
			assertParseEquivalent(t, p, data, parsers.Instructions{}, degraded, cs)
		}
	}
}
