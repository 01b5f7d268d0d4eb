// Flags more than one command takes are registered here, once, so their
// names, defaults and help cannot drift between commands — and what the
// commands then do with them is written here once too.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"

	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/serve"
	"github.com/gt-elba/milliscope/internal/stream"
	"github.com/gt-elba/milliscope/internal/transform"
)

// addDBFlag registers --db, the one way every command names a warehouse.
func addDBFlag(fs *flag.FlagSet) *string {
	return fs.String("db", "", "warehouse directory (a segment store): ingest, live and collector create it "+
		"or resume from its last checkpoint, and commit to it on exit; every other command reads it")
}

// openForLoad returns the warehouse a loading command appends to: the
// store in --db, whose manifest, with the ingest ledger inside it, makes
// re-runs resumable and idempotent; without --db, one held in memory only.
func openForLoad(path string) (*mscopedb.DB, error) {
	if path == "" {
		return mscopedb.Open(), nil
	}
	return openStore(path, false)
}

// commitLoaded commits what a loading command appended, if --db was given.
func commitLoaded(path string, db *mscopedb.DB) error {
	if path == "" {
		return nil
	}
	if err := db.Checkpoint(); err != nil {
		return err
	}
	fmt.Printf("warehouse committed to %s (%d segments on disk)\n", path, totalSegments(db))
	return nil
}

// openWarehouse opens the --db of a command that needs one to be there.
func openWarehouse(cmd, path string) (*mscopedb.DB, error) {
	if path == "" {
		return nil, fmt.Errorf("%s: --db is required", cmd)
	}
	return openStore(path, true)
}

// openStore opens a store directory, creating it unless it mustExist.
func openStore(path string, mustExist bool) (*mscopedb.DB, error) {
	st, err := os.Stat(path)
	switch {
	case err != nil && (mustExist || !os.IsNotExist(err)):
		return nil, err
	case err == nil && !st.IsDir():
		return nil, fmt.Errorf("%s is a file, not a warehouse directory", path)
	}
	return mscopedb.OpenDir(path, mscopedb.StoreOptions{})
}

// engineFlags configure the streaming engine and its listeners under live
// and collector.
type engineFlags struct {
	budget              *float64
	fidelity            *string
	httpAddr, serveAddr *string
}

func addEngineFlags(fs *flag.FlagSet) engineFlags {
	return engineFlags{
		budget:   fs.Float64("budget", 0, "quarantine error budget per source (0 = default 5%)"),
		fidelity: fs.String("fidelity", "", "degradation mode: full | adaptive | aggregate (default full)"),
		httpAddr: fs.String("http", "", "serve the engine's /status /alerts /metrics /healthz on this address (e.g. :8080)"),
		serveAddr: fs.String("serve", "",
			"serve the full observability API (query, flamegraphs, diagnosis) over the warehouse being loaded on this address"),
	}
}

// config is the engine configuration the flags describe, alerts printed as
// they fire; the caller sets DB. cmd prefixes the error for an unknown
// --fidelity or an out-of-range --budget, both reported before anything
// is run or opened.
func (e engineFlags) config(cmd string) (stream.Config, error) {
	switch *e.fidelity {
	case "", stream.FidelityFull, stream.FidelityAdaptive,
		stream.FidelityAggregate:
	default:
		return stream.Config{}, fmt.Errorf("%s: unknown --fidelity %q (full | adaptive | aggregate)", cmd, *e.fidelity)
	}
	if err := transform.CheckBudget(*e.budget); err != nil {
		return stream.Config{}, fmt.Errorf("%s: --budget: %w", cmd, err)
	}
	return stream.Config{
		ErrorBudget: *e.budget,
		Fidelity:    stream.FidelityOptions{Mode: *e.fidelity},
		OnAlert: func(a stream.Alert) {
			fmt.Printf("ALERT @%s watermark=%dus window=[%d,%d]us: %s [%s]\n",
				a.Raised.Format("15:04:05.000"), a.WatermarkUS,
				a.Diagnosis.Window.StartMicros, a.Diagnosis.Window.EndMicros,
				a.Diagnosis.Verdict, a.Waited())
		},
	}, nil
}

// checkRate refuses a probability flag outside [0, 1], NaN included, by
// name, before the command does any work.
func checkRate(cmd, flag string, p float64) error {
	if !(p >= 0 && p <= 1) {
		return fmt.Errorf("%s: --%s %v outside [0, 1]", cmd, flag, p)
	}
	return nil
}

// listen starts the --http and --serve listeners over a running engine:
// surface is the command's own mux, paths what it answers, and claims the
// paths it keeps when the observability API is mounted around it. The
// returned func closes both.
func (e engineFlags) listen(cmd string, pipe *stream.Pipeline, surface http.Handler, paths string, claims ...string) (func(), error) {
	srv, err := serveOn(*e.httpAddr, surface, cmd+": %w", "serving "+paths+" on %s\n")
	if err != nil {
		return nil, err
	}
	var obsSrv *http.Server
	if *e.serveAddr != "" {
		obs, err := serve.New(serve.Config{Pipeline: pipe})
		if err == nil {
			obsSrv, err = serveOn(*e.serveAddr, mountServe(obs, surface, claims...),
				cmd+": serve listener: %w", "serving the observability API on %s\n")
		}
		if err != nil {
			closeServers(srv)
			return nil, err
		}
	}
	return func() { closeServers(srv, obsSrv) }, nil
}

// serveOn serves h on addr in the background and prints banner with the
// bound address; an empty addr is no server.
func serveOn(addr string, h http.Handler, errFormat, banner string) (*http.Server, error) {
	if addr == "" {
		return nil, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf(errFormat, err)
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }()
	fmt.Printf(banner, ln.Addr())
	return srv, nil
}

func closeServers(srvs ...*http.Server) {
	for _, s := range srvs {
		if s != nil {
			_ = s.Close()
		}
	}
}

// printAlerts lists the alerts an engine raised, once it has stopped.
func printAlerts(alerts []stream.Alert) {
	for _, a := range alerts {
		extra := ""
		if len(a.Missing) > 0 {
			extra = " DEGRADED missing " + strings.Join(a.Missing, ",")
		}
		fmt.Printf("alert %d: %s%s [%s]\n", a.ID, a.Diagnosis.Verdict, extra, a.Waited())
	}
}
