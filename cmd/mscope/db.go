// The segment-store maintenance subcommands (compact, migrate-db).
package main

import (
	"flag"
	"fmt"

	"github.com/gt-elba/milliscope"
)

// totalSegments counts on-disk segments across every table.
func totalSegments(db *milliscope.DB) int {
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

func cmdMigrateDB(args []string) error {
	fs := flag.NewFlagSet("migrate-db", flag.ContinueOnError)
	dbPath := fs.String("from", "", "gob warehouse file to migrate (required)")
	dir := fs.String("db", "", "target warehouse directory (required, must not already hold a warehouse)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dbPath == "" || *dir == "" {
		return fmt.Errorf("migrate-db: --from and --db are required")
	}
	db, err := milliscope.LoadDB(*dbPath)
	if err != nil {
		return err
	}
	if err := db.AttachStore(*dir, milliscope.StoreOptions{}); err != nil {
		return err
	}
	if err := db.Checkpoint(); err != nil {
		return err
	}
	rows := 0
	for _, name := range db.TableNames() {
		if t, terr := db.Table(name); terr == nil {
			rows += t.Rows()
		}
	}
	fmt.Printf("migrated %s → %s: %d rows in %d segments\n",
		*dbPath, *dir, rows, totalSegments(db))
	fmt.Println("point any mscope command's --db at the directory to query it")
	return nil
}
