// Command rrsd is the rough-surface tile daemon: it serves windows of
// deterministic, seed-addressed surfaces over HTTP (see internal/service
// and DESIGN.md §11).
//
//	rrsd -addr :8270
//	curl -X POST --data @scene.json localhost:8270/v1/scene
//	curl "localhost:8270/v1/scene/<id>/tile/0,0,256x256?seed=7&format=png" > tile.png
//	curl "localhost:8270/v1/scene/<id>/tile/3/0,0?seed=7&format=png" > tile_z3.png
//
// With -node plus -peers or -peers-file the daemon joins a static
// fleet: tile keys shard across peers by weighted rendezvous hashing,
// scene registrations fan out to every peer, and non-owners proxy tile
// requests to the owning shard's cache (internal/cluster, DESIGN.md
// §16):
//
//	rrsd -addr :8270 -node a -peers "a=http://h1:8270,b=http://h2:8270"
//
// SIGINT/SIGTERM trigger a graceful shutdown: the node first refuses
// proxy traffic (healthz goes 503 so peers route around it), then the
// listener closes, in-flight tile requests drain (bounded by -drain),
// the worker pool joins, and the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"roughsurface/internal/cluster"
	"roughsurface/internal/par"
	"roughsurface/internal/service"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rrsd:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rrsd", flag.ContinueOnError)
	fs.SetOutput(out)
	addr := fs.String("addr", ":8270", "listen address (host:port; port 0 picks a free port)")
	workers := fs.Int("workers", 0, "tile-rendering workers (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 0, "admission queue depth beyond the workers (0 = 2x workers)")
	timeout := fs.Duration("timeout", 15*time.Second, "per-tile request deadline (queue wait + render)")
	cacheMB := fs.Int64("cache-mb", 256, "tile LRU capacity in MiB (0 disables)")
	maxEdge := fs.Int("max-tile-edge", 4096, "maximum tile edge in samples")
	genWorkers := fs.Int("gen-workers", 1, "intra-tile render parallelism")
	tileEdge := fs.Int("tile-edge", 256, "fixed edge of pyramid-route tiles")
	maxLevel := fs.Int("max-level", 8, "deepest pyramid level served")
	prefetchQueue := fs.Int("prefetch-queue", 32, "neighbor-prefetch queue depth (-1 disables prefetch)")
	drain := fs.Duration("drain", 30*time.Second, "graceful-shutdown drain deadline")
	portFile := fs.String("portfile", "", "write the bound address to this file once listening (for scripts)")
	quiet := fs.Bool("q", false, "disable access logging")
	node := fs.String("node", "", "this node's name in the cluster (enables cluster routing)")
	var peerList []cluster.Peer
	fs.Func("peers", "cluster peers as name=url[*weight], comma-separated (repeatable)", func(v string) error {
		ps, err := cluster.ParsePeersFlag(v)
		if err != nil {
			return err
		}
		peerList = append(peerList, ps...)
		return nil
	})
	peersFile := fs.String("peers-file", "", "JSON peers file ([{name,url,weight},...]), polled for changes")
	probeInterval := fs.Duration("probe-interval", 2*time.Second, "peer health-probe and peers-file poll period")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *node == "" && (len(peerList) > 0 || *peersFile != "") {
		return errors.New("-peers/-peers-file require -node")
	}
	// Effective flags, served verbatim at GET /v1/info so multi-node
	// debugging doesn't need process-table archaeology.
	flags := make(map[string]string)
	fs.VisitAll(func(f *flag.Flag) { flags[f.Name] = f.Value.String() })

	cacheBytes := *cacheMB << 20
	if *cacheMB == 0 {
		cacheBytes = -1
	}
	cfg := service.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		RequestTimeout: *timeout,
		CacheBytes:     cacheBytes,
		MaxTileEdge:    *maxEdge,
		GenWorkers:     *genWorkers,
		TileEdge:       *tileEdge,
		MaxLevel:       *maxLevel,
		PrefetchQueue:  *prefetchQueue,
		Flags:          flags,
	}
	if !*quiet {
		cfg.AccessLog = log.New(out, "rrsd: ", log.LstdFlags)
	}
	var cl *cluster.Cluster
	if *node != "" {
		cl = cluster.New(*node, peerList, cluster.Options{
			ProbeInterval: *probeInterval,
			PeersFile:     *peersFile,
		})
		cl.Start()
		cfg.Cluster = cl
	}
	closeCluster := func() {
		if cl != nil {
			cl.Close()
		}
	}
	s := service.New(cfg)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		s.Close()
		closeCluster()
		return err
	}
	if *portFile != "" {
		if err := os.WriteFile(*portFile, []byte(ln.Addr().String()), 0o644); err != nil {
			ln.Close()
			s.Close()
			closeCluster()
			return err
		}
	}
	fmt.Fprintf(out, "rrsd: listening on http://%s\n", ln.Addr())
	if cl != nil {
		fmt.Fprintf(out, "rrsd: cluster node %q (%d configured peers)\n", *node, cl.Size())
	}

	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	serveErr := par.Background(func() error { return srv.Serve(ln) })

	select {
	case err := <-serveErr:
		// The listener failed underneath us; nothing to drain.
		s.Close()
		closeCluster()
		return err
	case <-ctx.Done():
	}

	// Shutdown ordering (DESIGN.md §11, §16): refuse proxy traffic first
	// — BeginDrain flips /healthz to 503 and rejects peer-marked tile
	// requests, so the fleet routes around this node while it still
	// drains its own clients — then stop accepting and drain HTTP
	// handlers (handlers blocked on the pool keep their workers busy
	// until their tiles finish), then join the prober and the pool.
	fmt.Fprintf(out, "rrsd: shutting down (drain %s)\n", *drain)
	s.BeginDrain()
	// The drain context must outlive ctx (which is already done by the
	// time we get here) but should keep its values for any tracing.
	shCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), *drain)
	defer cancel()
	shutdownErr := srv.Shutdown(shCtx)
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		s.Close()
		closeCluster()
		return err
	}
	closeCluster()
	s.Close()
	if shutdownErr != nil {
		return fmt.Errorf("drain incomplete: %w", shutdownErr)
	}
	fmt.Fprintln(out, "rrsd: bye")
	return nil
}
