package transform

import (
	"fmt"
	"strings"
	"testing"

	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/xmlcsv"
)

// FuzzLiveMergeMatchesBatch: the builder fuzz target's records, cut into
// blocks of a fuzzed size as the live loader cuts a source's records and
// merged one block after another into one table, never panic; and every
// column whose type no block raises above what the blocks before it settled
// equals the single builder's, cell for cell. A raised column has the
// single builder's type, its rows of earlier blocks re-rendered by the
// widening.
func FuzzLiveMergeMatchesBatch(f *testing.F) {
	builderSeeds(func(shape []byte, texts string) {
		for _, size := range []uint8{1, 2, 3, 64} {
			f.Add(shape, texts, size)
		}
	})
	f.Fuzz(func(t *testing.T, shape []byte, texts string, size uint8) {
		recs := fuzzRecords(shape, texts)
		block := int(size)%16 + 1
		want, wantErr := builtTable("t", "t.mxml", recs)

		db := mscopedb.Open()
		tgt := Target{DB: db, Table: "t"}
		var b Builder
		settled := map[string]mscopedb.Type{}
		raised := map[string]bool{}
		var err error
		for lo := 0; lo < len(recs) && err == nil; lo += block {
			b.Reset()
			hi := min(lo+block, len(recs))
			for i := lo; i < hi; i++ {
				if err := b.Add(&recs[i]); err != nil {
					t.Fatal(err)
				}
			}
			for _, c := range b.cols {
				if !c.seen || c.typ == 0 {
					continue
				}
				if was := settled[c.name]; was != 0 && xmlcsv.Widen(was, c.typ) != was {
					raised[c.name] = true
				}
				settled[c.name] = xmlcsv.Widen(settled[c.name], c.typ)
			}
			if err = tgt.Merge(&b, 0, hi-lo); err != nil && lo == 0 && strings.HasSuffix(err.Error(), "records with no fields") {
				return // the live loader cannot create a table of no columns
			}
		}
		if wantErr != nil || err != nil {
			if (wantErr == nil) != (err == nil) {
				t.Fatalf("merge error %v, single builder error %v", err, wantErr)
			}
			return
		}
		got, gerr := db.Table("t")
		if gerr != nil {
			if want.Rows() == 0 {
				return
			}
			t.Fatal(gerr)
		}
		if fmt.Sprint(got.Columns()) != fmt.Sprint(want.Columns()) || got.Rows() != want.Rows() {
			t.Fatalf("merged %d rows of %v, single builder %d of %v", got.Rows(), got.Columns(), want.Rows(), want.Columns())
		}
		for ci, col := range want.Columns() {
			if raised[col.Name] {
				continue
			}
			for r := 0; r < want.Rows(); r++ {
				if g, w := fmt.Sprintf("%#v", got.Value(ci, r)), fmt.Sprintf("%#v", want.Value(ci, r)); g != w {
					t.Fatalf("column %q row %d (blocks of %d): merged %s, single builder %s", col.Name, r, block, g, w)
				}
			}
		}
	})
}
