package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"github.com/gt-elba/milliscope/internal/serve"
)

// cmdServe runs the observability service over a saved warehouse: the
// query API, waterfall/flamegraph rendering, and the diagnosis timeline,
// all on one listener. Attach to a live engine instead with
// `mscope live --serve` or `mscope collector --serve`.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	dbPath := addDBFlag(fs)
	listen := fs.String("listen", ":8080", "listen address")
	if err := fs.Parse(args); err != nil {
		return err
	}
	db, err := openWarehouse("serve", *dbPath)
	if err != nil {
		return err
	}
	obs, err := serve.New(serve.Config{DB: db})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	// Installed before anything is answered: a caller may interrupt right after.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	srv := &http.Server{Handler: obs.Handler()}
	go func() { _ = srv.Serve(ln) }()
	fmt.Printf("serving %s on http://%s — open / for the index, /api/query for MQL,\n"+
		"/flamegraph.svg for the slowest request's critical path\n", *dbPath, ln.Addr())
	<-sig
	return srv.Close()
}
