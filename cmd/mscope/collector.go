package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"github.com/gt-elba/milliscope/internal/collector"
)

// cmdCollector runs the central ingest server: accept per-node agents,
// apply their checkpointed batches to the shared streaming engine, ack
// durable offsets, and raise millibottleneck alerts online. Ctrl-C
// drains the engine — final windows classified, ledger checkpointed —
// and saves the warehouse.
func cmdCollector(args []string) error {
	fs := flag.NewFlagSet("collector", flag.ContinueOnError)
	listen := fs.String("listen", ":9090", "listen endpoint for agents, host:port")
	network := fs.String("network", "tcp", "listen network: tcp | unix")
	token := fs.String("token", "", "shared authentication token")
	dbPath := addDBFlag(fs)
	flags := addEngineFlags(fs)
	selfTrace := fs.Bool("self-trace", false,
		"ingest the collector's own span telemetry into the warehouse at drain time")
	if err := fs.Parse(args); err != nil {
		return err
	}
	engine, err := flags.config("collector")
	if err != nil {
		return err
	}
	if engine.DB, err = openForLoad(*dbPath); err != nil {
		return err
	}
	col, err := collector.New(collector.Config{
		Token:     *token,
		Network:   *network,
		Addr:      *listen,
		Engine:    engine,
		SelfTrace: *selfTrace,
	})
	if err != nil {
		return err
	}
	if err := col.Start(); err != nil {
		return err
	}
	fmt.Printf("collector listening on %s://%s\n", *network, col.Addr())

	// The collector's own surface claims the fleet endpoints; under --serve
	// the observability API answers everything else.
	closeListeners, err := flags.listen("collector", col.Pipeline(), col.Handler(),
		"/status /alerts /collector /metrics /healthz",
		"/status", "/alerts", "/collector", "/metrics", "/healthz")
	if err != nil {
		return err
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("draining...")
	stopErr := col.Stop()
	closeListeners()

	st := col.Status()
	fmt.Printf("collector session: %d records in %d batches from %d connections, %d sources, %d acks\n",
		st.RecordsIn, st.BatchesIn, st.ConnsTotal, st.Opens, st.AcksOut)
	printAlerts(col.Pipeline().Alerts())
	if err := commitLoaded(*dbPath, col.DB()); err != nil {
		return err
	}
	return stopErr
}
