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
	"slices"
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
			"serve the full observability API (query, flamegraphs, diagnosis) over the warehouse being loaded on this address, "+
				"with the same /metrics and /healthz as --http"),
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

// listen starts the --http and --serve listeners over a running engine
// (see handlers). The returned func closes both.
func (e engineFlags) listen(cmd string, pipe *stream.Pipeline, surface http.Handler, metrics func() string, claims ...string) (func(), error) {
	httpH, serveH, err := e.handlers(pipe, surface, metrics, claims...)
	if err != nil {
		return nil, err
	}
	paths := strings.Join(claims, " ") + " /healthz /metrics"
	srv, err := serveOn(*e.httpAddr, httpH, cmd+": %w", "serving "+paths+" on %s\n")
	if err != nil {
		return nil, err
	}
	obsSrv, err := serveOn(*e.serveAddr, serveH, cmd+": serve listener: %w", "serving the observability API on %s\n")
	if err != nil {
		closeServers(srv)
		return nil, err
	}
	return func() { closeServers(srv, obsSrv) }, nil
}

// handlers composes what the --http and --serve listeners answer; this is
// the one place that knows every surface of the process. surface is the
// command's own mux, answering the claims and /healthz, and metrics
// renders its Prometheus families. --http answers the surface; --serve
// (serveH nil without it) answers the claims and /healthz from the
// surface and everything else from the observability API over the
// engine's warehouse. Both answer /metrics with the same exposition: the
// surface's families, then, under --serve, the API's.
func (e engineFlags) handlers(pipe *stream.Pipeline, surface http.Handler, metrics func() string, claims ...string) (httpH, serveH http.Handler, err error) {
	var obs *serve.Server
	if *e.serveAddr != "" {
		if obs, err = serve.New(serve.Config{Pipeline: pipe}); err != nil {
			return nil, nil, err
		}
	}
	exposition := func(w http.ResponseWriter, r *http.Request) {
		text := metrics()
		if obs != nil {
			text += obs.MetricsText()
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_, _ = w.Write([]byte(text))
	}
	mux := func(rest http.Handler, paths ...string) http.Handler {
		m := http.NewServeMux()
		m.Handle("/", rest)
		for _, path := range paths {
			m.Handle(path, surface)
		}
		m.HandleFunc("/metrics", exposition)
		return m
	}
	httpH = mux(surface)
	if obs != nil {
		serveH = mux(obs.Handler(), append(slices.Clip(claims), "/healthz")...)
	}
	return httpH, serveH, nil
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
