package main

// Election wiring for powserved: the -peer / -advertise / -elect-id
// flags describe the failover group, and -role witness runs the
// vote-only third member — a tiny HTTP server holding nothing but the
// election state file, cheap enough for a head node or a VM outside
// the data path.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"hpcpower/internal/elect"
	"hpcpower/internal/vfs"
)

// electStateName is the election state file inside -data-dir, next to
// the WAL and EPOCH on data nodes.
const electStateName = "ELECT"

// peerFlag collects repeatable -peer flags: "id=url" for a data peer,
// "id=url,witness" for the vote-only member.
type peerFlag []elect.Peer

func (p *peerFlag) String() string {
	var parts []string
	for _, peer := range *p {
		s := peer.ID + "=" + peer.URL
		if peer.Witness {
			s += ",witness"
		}
		parts = append(parts, s)
	}
	return strings.Join(parts, " ")
}

func (p *peerFlag) Set(v string) error {
	id, rest, ok := strings.Cut(v, "=")
	if !ok || id == "" {
		return fmt.Errorf(`peer %q: want "id=url" or "id=url,witness"`, v)
	}
	url, witness := rest, false
	if u, tag, hasTag := strings.Cut(rest, ","); hasTag {
		if tag != "witness" {
			return fmt.Errorf(`peer %q: unknown tag %q (only "witness")`, v, tag)
		}
		url, witness = u, true
	}
	if url == "" {
		return fmt.Errorf(`peer %q: empty URL`, v)
	}
	*p = append(*p, elect.Peer{ID: id, URL: strings.TrimRight(url, "/"), Witness: witness})
	return nil
}

// electionConfig assembles the elect.Config shared by data nodes and
// the witness from the command-line topology.
func electionConfig(id, advertise, dataDir string, peers []elect.Peer, hb time.Duration, witness bool) (elect.Config, error) {
	if dataDir == "" {
		return elect.Config{}, fmt.Errorf("elections need -data-dir (the promise file must survive restarts)")
	}
	if id == "" {
		return elect.Config{}, fmt.Errorf("elections need -elect-id")
	}
	if advertise == "" {
		return elect.Config{}, fmt.Errorf("elections need -advertise (the URL peers dial; behind a proxy or NAT this is the outside URL, not the bind address)")
	}
	if witness {
		// No server opens (and sweeps) a witness's data dir.
		vfs.RemoveTemps(vfs.OS, dataDir)
	}
	st, err := elect.OpenStateFile(vfs.OS, filepath.Join(dataDir, electStateName))
	if err != nil {
		return elect.Config{}, err
	}
	return elect.Config{
		ID:             id,
		URL:            strings.TrimRight(advertise, "/"),
		Peers:          peers,
		Witness:        witness,
		HeartbeatEvery: hb,
		State:          st,
		Transport:      &elect.HTTPTransport{},
	}, nil
}

// runWitness serves the vote-only group member: the election RPCs plus
// health, readiness, and a minimal metrics scrape. No data plane — a
// witness holds an epoch promise and nothing else.
func runWitness(addr string, cfg elect.Config) error {
	el, err := elect.New(cfg)
	if err != nil {
		return err
	}
	defer el.Close()

	mux := http.NewServeMux()
	mux.Handle("/v1/elect/", elect.Handler(el))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		st := el.Status()
		w.Header().Set("Content-Type", "application/json")
		// The shape of a data node's: the election block holds the rest.
		json.NewEncoder(w).Encode(map[string]any{"status": "ready", "role": st.Role, "epoch": st.Epoch, "election": st})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		st := el.Status()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		fmt.Fprintf(w, "# TYPE powserved_elect_epoch gauge\npowserved_elect_epoch %d\n", st.Epoch)
		known := 0
		if st.LeaderID != "" {
			known = 1
		}
		fmt.Fprintf(w, "# TYPE powserved_elect_leader_known gauge\npowserved_elect_leader_known %d\n", known)
	})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go el.Run(ctx)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: mux}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Printf("powserved: listening on %s (witness %s, group of %d)\n",
		ln.Addr(), cfg.ID, len(cfg.Peers)+1)

	select {
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutCtx); err != nil {
			return err
		}
		return nil
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}
