package transform

import (
	"bytes"
	"context"
	"io"
	"os"
	"strings"
	"sync"

	"github.com/gt-elba/milliscope/internal/mxml"
	"github.com/gt-elba/milliscope/internal/parsers"
	"github.com/gt-elba/milliscope/internal/selfobs"
)

// DefaultChunkSize is the target shard size for splitting one source file
// across workers: large enough that regex matching dominates coordination,
// small enough that a single hot file still fans out.
const DefaultChunkSize = 1 << 20

// chunkSize returns the effective shard size.
func (o Options) chunkSize() int {
	if o.ChunkSize <= 0 {
		return DefaultChunkSize
	}
	return o.ChunkSize
}

// shardable decides, from what the engine can observe, whether a file is
// split across workers: its format declares record boundaries, it holds at
// least two chunks, and there is more than one worker to parse them. With
// one worker a sharded parse is the whole-file parse plus a stitch (about
// 5% more allocations per row for no overlap), so the file streams whole.
func shardable(p parsers.Parser, instr parsers.Instructions, size int64, workers, chunkSize int) (parsers.ChunkParser, parsers.Boundary, bool) {
	cp, ok := p.(parsers.ChunkParser)
	if !ok || workers < 2 || size < int64(2*chunkSize) {
		return nil, parsers.Boundary{}, false
	}
	bnd, ok := cp.Chunkable(instr)
	return cp, bnd, ok
}

// shard is one byte range of a source file. startLine is the absolute
// 1-based line number of its first line, so shard parses report the same
// header handling and diagnostics as a whole-file parse.
type shard struct {
	data      []byte
	startLine int
}

// planShards splits data into record-aligned shards of roughly chunkSize
// bytes. Cuts are advanced from each size target to the next line start
// and then — when the format declares a record boundary — to the next
// line matching it. The boundary is an optimization, not a correctness
// requirement: a cut that still lands inside a record (e.g. a
// boundary-lookalike line in corrupted input) surfaces as a non-empty
// tail during stitching and is re-parsed across the cut.
func planShards(data []byte, bnd parsers.Boundary, chunkSize int) []shard {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	if len(data) < 2*chunkSize {
		return []shard{{data: data, startLine: 1}}
	}
	cuts := []int{0}
	pos := 0
	for {
		target := pos + chunkSize
		if target >= len(data) {
			break
		}
		c := nextCut(data, target, bnd)
		if c >= len(data) {
			break
		}
		cuts = append(cuts, c)
		pos = c
	}
	shards := make([]shard, 0, len(cuts))
	line := 1
	for i, c := range cuts {
		end := len(data)
		if i+1 < len(cuts) {
			end = cuts[i+1]
		}
		shards = append(shards, shard{data: data[c:end], startLine: line})
		line += bytes.Count(data[c:end], []byte{'\n'})
	}
	return shards
}

// nextCut returns the first safe cut offset at or after target: the next
// line start, advanced to the next boundary-matching line when the format
// declares one. Returns len(data) when no cut exists before end of file.
func nextCut(data []byte, target int, bnd parsers.Boundary) int {
	ls := target
	if data[target-1] != '\n' {
		i := bytes.IndexByte(data[target:], '\n')
		if i < 0 {
			return len(data)
		}
		ls = target + i + 1
	}
	if bnd.Start == nil {
		return ls
	}
	for ls < len(data) {
		le := bytes.IndexByte(data[ls:], '\n')
		lineEnd := len(data)
		if le >= 0 {
			lineEnd = ls + le
		}
		line := data[ls:lineEnd]
		// The scanner strips a trailing \r; match what the parser will see.
		line = bytes.TrimSuffix(line, []byte{'\r'})
		if bnd.Start.Match(line) {
			return ls
		}
		if le < 0 {
			break
		}
		ls = lineEnd + 1
	}
	return len(data)
}

// chunkOutcome is one shard's optimistic parse result.
type chunkOutcome struct {
	entries []mxml.Entry
	regions []parsers.Malformed
	tail    []parsers.TailLine
	err     error
}

// parseChunkFrom parses one shard (or re-parse stream) collecting entries
// and, in degraded mode, malformed regions. A fail-fast parse (degraded
// false) passes a nil Recover, so the first malformed line is the error.
func parseChunkFrom(cp parsers.ChunkParser, in io.Reader, instr parsers.Instructions, startLine int, mid, degraded bool) chunkOutcome {
	var out chunkOutcome
	emit := func(e mxml.Entry) error {
		out.entries = append(out.entries, e)
		return nil
	}
	var rec parsers.Recover
	if degraded {
		rec = func(m parsers.Malformed) error {
			out.regions = append(out.regions, m)
			return nil
		}
	}
	out.tail, out.err = cp.ParseChunk(in, instr, startLine, mid, emit, rec)
	return out
}

// parseFileSharded reads one file, splits it on record boundaries and
// parses the shards concurrently, returning the entries and (in degraded
// mode) malformed regions in the order a whole-file parse yields them.
func parseFileSharded(ctx context.Context, sem semaphore, j *fileJob, cp parsers.ChunkParser, bnd parsers.Boundary, chunkSize int, degraded bool, obs *selfobs.Buf) ([]mxml.Entry, []parsers.Malformed, error) {
	sp := obs.Begin(selfobs.PipeIngest, "read", "whole", j.name)
	data, err := os.ReadFile(j.full)
	if err != nil {
		return nil, nil, err
	}
	sp.End(int64(len(data)), 0)
	sp = obs.Begin(selfobs.PipeIngest, "shardplan", "whole", j.name)
	shards := planShards(data, bnd, chunkSize)
	sp.End(int64(len(shards)), 0)
	return parseSharded(ctx, sem, cp, shards, j.binding.Instructions, degraded, obs, j.name)
}

// parseSharded parses a file through record-aligned shards and stitches
// the results back into serial order. Every shard parses optimistically in
// parallel (bounded by sem); the stitch loop then walks shards in order.
// An empty tail on shard i certifies the serial parser state at the cut
// was fresh, so shard i+1's optimistic result is exactly what the serial
// parse would have produced; a non-empty tail means a record straddles
// the cut, so shard i+1's optimistic result is discarded and the range is
// re-parsed from the tail's first line. Errors surface in serial order:
// the error returned is the one the serial parse would have hit first.
func parseSharded(ctx context.Context, sem semaphore, cp parsers.ChunkParser, shards []shard, instr parsers.Instructions, degraded bool, obs *selfobs.Buf, name string) ([]mxml.Entry, []parsers.Malformed, error) {
	outs := make([]chunkOutcome, len(shards))
	var wg sync.WaitGroup
	for i := range shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if !sem.acquireCtx(ctx) {
				outs[i].err = ctx.Err()
				return
			}
			defer sem.release()
			mid := i < len(shards)-1
			// Shard goroutines cannot share the file worker's Buf (it is
			// goroutine-local by contract); one-shot spans lock once each.
			sp := selfobs.Begin(selfobs.PipeIngest, "chunkparse", selfobs.Shard(i), name)
			outs[i] = parseChunkFrom(cp, bytes.NewReader(shards[i].data), instr, shards[i].startLine, mid, degraded)
			sp.End(int64(len(outs[i].entries)), int64(len(outs[i].regions)))
		}(i)
	}
	wg.Wait()

	stitch := obs.Begin(selfobs.PipeIngest, "stitch", "whole", name)
	reparsed := int64(0)

	var entries []mxml.Entry
	var regions []parsers.Malformed
	cur := outs[0]
	for i := 1; i < len(shards); i++ {
		if cur.err != nil {
			return nil, nil, cur.err
		}
		entries = append(entries, cur.entries...)
		regions = append(regions, cur.regions...)
		if len(cur.tail) == 0 {
			cur = outs[i]
			continue
		}
		// A record straddles the cut: replay the tail lines ahead of the
		// next shard's bytes. Tail lines are consecutive and end exactly at
		// the cut, so this stream is line-for-line what the serial parser
		// saw from the tail's first line onward.
		var sb strings.Builder
		for _, tl := range cur.tail {
			sb.WriteString(tl.Text)
			sb.WriteByte('\n')
		}
		in := io.MultiReader(strings.NewReader(sb.String()), bytes.NewReader(shards[i].data))
		cur = parseChunkFrom(cp, in, instr, cur.tail[0].Line, i < len(shards)-1, degraded)
		reparsed++
	}
	if cur.err != nil {
		return nil, nil, cur.err
	}
	entries = append(entries, cur.entries...)
	regions = append(regions, cur.regions...)
	// Items counts stitched entries; Errs counts cuts that needed a
	// cross-shard re-parse (an overhead signal, not a failure).
	stitch.End(int64(len(entries)), reparsed)
	return entries, regions, nil
}
