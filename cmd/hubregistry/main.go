// Command hubregistry serves a materialized synthetic hub over HTTP: the
// Docker Registry API v2 on one port and the Docker Hub search API on
// another (they are distinct hosts in the real ecosystem and their URL
// spaces collide under /v2/).
//
// Both services run on the serve chassis: panic recovery, an optional
// max-in-flight admission limit, and graceful shutdown — SIGINT/SIGTERM
// drains in-flight requests for up to -drain before the listeners close.
//
// Usage:
//
//	hubregistry -data ./hub [-addr :5000] [-search-addr :5001]
//	            [-storage plain|dedup] [-max-inflight 0] [-drain 10s]
//	            [-analytics] [-analytics-addr :5002]
//
// -storage dedup serves from the file-deduplicating backend
// (internal/dedupstore): startup re-ingests the materialized blobs into a
// content-addressed file pool under <data>/dedup-pool and prints the
// realized savings; every pull reconstructs the exact wire bytes.
//
// -analytics attaches the always-on incremental analytics service
// (internal/analytics) to the registry's write path and serves its query
// API (/analytics/summary, /analytics/dedup, /analytics/figure/{id}) on
// -analytics-addr. The hook is installed before the hub state, so the
// tag registrations at startup backfill the live index from the stored
// blobs; pushes and deletes arriving over the wire afterwards keep it
// current incrementally.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/blobstore"
	"repro/internal/core"
	"repro/internal/dedupstore"
	"repro/internal/hubapi"
	"repro/internal/serve"
	"repro/internal/topology"
)

func main() {
	data := flag.String("data", "", "hub directory created by hubgen (required)")
	addr := flag.String("addr", ":5000", "registry listen address")
	searchAddr := flag.String("search-addr", ":5001", "search API listen address")
	storage := flag.String("storage", "plain", "blob storage backend: plain (disk) or dedup (file-deduplicating pool)")
	maxInFlight := flag.Int("max-inflight", 0, "max concurrent requests per service (0 = unlimited)")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
	withAnalytics := flag.Bool("analytics", false, "attach the live analytics service to the registry write path and serve its query API")
	analyticsAddr := flag.String("analytics-addr", ":5002", "analytics API listen address (with -analytics)")
	flag.Parse()
	if *data == "" {
		fmt.Fprintln(os.Stderr, "hubregistry: -data is required")
		os.Exit(2)
	}

	st, err := core.LoadHubState(filepath.Join(*data, "hubstate.json"))
	if err != nil {
		fatal(err)
	}
	disk, err := blobstore.NewDisk(filepath.Join(*data, "blobs"))
	if err != nil {
		fatal(err)
	}
	// The hub state installs after the ingest hook, so its tag
	// registrations backfill the live index with fallback walks over the
	// stored blobs.
	topo := topology.Topology{Ingest: *withAnalytics}
	site := topology.Site{
		Addr: *addr, MaxInFlight: *maxInFlight, DrainTimeout: *drain,
		Store: disk, Repos: st.Repos, Fill: st.Install,
	}
	switch *storage {
	case "plain":
	case "dedup":
		topo.Storage = topology.Dedup
		if site.Pool, err = dedupstore.NewDiskPool(filepath.Join(*data, "dedup-pool"), 0); err != nil {
			fatal(err)
		}
	default:
		fmt.Fprintf(os.Stderr, "hubregistry: unknown -storage %q (want plain or dedup)\n", *storage)
		os.Exit(2)
	}
	group := &serve.Group{}
	stack, err := topology.Provision(group, topo, site)
	if err != nil {
		fatal(err)
	}
	origin := stack.Origin
	if dedup := origin.Dedup; dedup != nil {
		st := dedup.Stats()
		fmt.Printf("hubregistry: dedup backend holds %d blobs in %.1f MiB physical (%.2fx over %.1f MiB logical)\n",
			dedup.Len(), float64(st.PhysicalBytes())/(1<<20), st.SavingsRatio(),
			float64(st.LogicalBytes)/(1<<20))
	}
	// The two services beside the registry on addresses of their own: the
	// Hub search API, and the analytics API (the stack also serves it
	// under /analytics/ on the registry's address).
	start := func(name, addr string, h http.Handler) *serve.Server {
		srv := &serve.Server{Name: name, Addr: addr, Handler: h, MaxInFlight: *maxInFlight, DrainTimeout: *drain}
		if err := group.Start(srv); err != nil {
			fatal(err)
		}
		return srv
	}
	if live := origin.Live; live != nil {
		ist := live.Stats()
		fmt.Printf("hubregistry: analytics on %s (epoch %d; startup backfill walked %d layers, %d skipped)\n",
			start("analytics", *analyticsAddr, live.Handler()).URL(), live.Epoch(), ist.FallbackWalks, ist.SkippedLayers)
	}
	searchSrv := start("search", *searchAddr, hubapi.NewServer(st.Repos, 634412.0/457627.0, st.Seed, 0))
	fmt.Printf("hubregistry: %d repos, %d blobs; registry on %s, search on %s\n",
		len(st.Repos), origin.Registry.Blobs().Len(), stack.URL, searchSrv.URL())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := <-group.ShutdownOnDone(ctx); err != nil {
		fatal(err)
	}
	fmt.Println("hubregistry: drained and stopped")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hubregistry:", err)
	os.Exit(1)
}
