package transform

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/gt-elba/milliscope/internal/parsers"
)

// FuzzShardedParseEquivalence is the shard planner's property test:
// for an ARBITRARY byte stream split at an ARBITRARY chunk size, the
// sharded stitched parse must reproduce the serial parse exactly — no
// record torn at a cut, no line dropped or duplicated, no header row
// double-counted, same malformed regions in degraded mode, and the same
// first error in fail-fast mode. It extends the PR 1 parser fuzz targets
// one layer up: those prove the parsers never crash; this proves
// sharding cannot change what they produce.
func FuzzShardedParseEquivalence(f *testing.F) {
	f.Add(uint8(0), apacheCorpus(40, 0), uint16(256))
	f.Add(uint8(0), apacheCorpus(40, 7), uint16(1))
	f.Add(uint8(1), mysqlCorpus(25, 0), uint16(100))
	f.Add(uint8(1), mysqlCorpus(25, 4), uint16(37))
	f.Add(uint8(1), []byte("# Time: not-a-time\n# Time: also-bad\nfree text\n"), uint16(3))
	f.Add(uint8(0), []byte("no newline at all"), uint16(2))
	f.Add(uint8(1), []byte(""), uint16(5))

	f.Fuzz(func(t *testing.T, format uint8, data []byte, rawChunk uint16) {
		chunkSize := int(rawChunk)%4096 + 1
		var p parsers.Parser
		var instr parsers.Instructions
		if format%2 == 0 {
			p, _ = parsers.Get("token")
			instr = parsers.ApacheInstructions()
		} else {
			p, _ = parsers.Get("mysql-slow")
			instr = parsers.Instructions{Const: map[string]string{"host": "mysql"}}
		}
		cp := p.(parsers.ChunkParser)
		for _, degraded := range []bool{false, true} {
			wantE, wantR, wantErr := serialParse(p, data, instr, degraded)
			gotE, gotR, gotErr := shardedParse(t, cp, data, instr, degraded, chunkSize)
			if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
				t.Fatalf("degraded=%v chunk=%d: sharded err %v, serial err %v", degraded, chunkSize, gotErr, wantErr)
			}
			if wantErr != nil {
				continue
			}
			if !reflect.DeepEqual(gotE, wantE) {
				t.Fatalf("degraded=%v chunk=%d: entries diverge (sharded %d, serial %d)",
					degraded, chunkSize, len(gotE), len(wantE))
			}
			if fmt.Sprintf("%v", projectRegions(gotR)) != fmt.Sprintf("%v", projectRegions(wantR)) {
				t.Fatalf("degraded=%v chunk=%d: malformed regions diverge", degraded, chunkSize)
			}
		}
	})
}
