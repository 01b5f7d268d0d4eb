// The segment-store maintenance subcommand (compact).
package main

import (
	"flag"
	"fmt"

	"github.com/gt-elba/milliscope/internal/mscopedb"
)

// totalSegments counts on-disk segments across every table.
func totalSegments(db *mscopedb.DB) int {
	n := 0
	for _, name := range db.TableNames() {
		if t, err := db.Table(name); err == nil {
			n += t.Segments()
		}
	}
	return n
}

func cmdCompact(args []string) error {
	fs := flag.NewFlagSet("compact", flag.ContinueOnError)
	dir := addDBFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	db, err := openWarehouse("compact", *dir)
	if err != nil {
		return err
	}
	before := totalSegments(db)
	if err := db.Compact(); err != nil {
		return err
	}
	fmt.Printf("compacted %s: %d → %d segments\n", *dir, before, totalSegments(db))
	return nil
}
