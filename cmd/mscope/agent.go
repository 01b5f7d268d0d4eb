package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"github.com/gt-elba/milliscope/internal/agentd"
)

// cmdAgent runs the per-node shipping daemon: tail this node's monitor
// logs, parse them locally, and ship checkpointed column batches to the
// central collector. Ctrl-C drains every source to EOF, waits for the
// collector's acks, and exits; a crash instead resumes from the
// collector-acked offsets on the next start, with zero duplicate rows.
func cmdAgent(args []string) error {
	fs := flag.NewFlagSet("agent", flag.ContinueOnError)
	id := fs.String("id", "", "stable agent identity, typically the node name (required)")
	addr := fs.String("addr", "", "collector endpoint, host:port (required)")
	network := fs.String("network", "tcp", "collector network: tcp | unix")
	token := fs.String("token", "", "shared authentication token")
	logs := fs.String("logs", "", "directory this node's monitors write (required)")
	httpAddr := fs.String("http", "", "serve /status /metrics /healthz on this address (e.g. :8081)")
	selfTrace := fs.Bool("self-trace", false,
		"ship this agent's own span telemetry to the collector at drain time")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" || *addr == "" || *logs == "" {
		return fmt.Errorf("agent: --id, --addr and --logs are required")
	}

	a, err := agentd.New(agentd.Config{
		ID:        *id,
		Token:     *token,
		Network:   *network,
		Addr:      *addr,
		LogDir:    *logs,
		SelfTrace: *selfTrace,
	})
	if err != nil {
		return err
	}

	srv, err := serveOn(*httpAddr, a.Handler(), "agent: %w", "serving /status /metrics /healthz on %s\n")
	if err != nil {
		return err
	}

	a.Start()
	fmt.Printf("agent %s shipping %s to %s://%s\n", *id, *logs, *network, *addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case <-sig:
		fmt.Println("draining...")
	case <-a.Done():
		// The loop only exits on its own for a fatal error (rejected
		// handshake) — surface it instead of hanging on the signal.
	}
	stopErr := a.Stop()
	closeServers(srv)
	st := a.Status()
	fmt.Printf("agent session: %d records in %d batches shipped, %d acks, %d reconnects, %d quarantined\n",
		st.RecordsSent, st.BatchesSent, st.AcksReceived, st.Reconnects, st.Quarantined)
	return stopErr
}
