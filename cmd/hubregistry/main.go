// Command hubregistry serves a Docker Registry API v2 endpoint on the
// serve chassis: panic recovery, an optional max-in-flight admission
// limit, and graceful shutdown — SIGINT/SIGTERM drains in-flight requests
// for up to -drain, then the stack's counters are printed as JSON.
//
// The role follows from which input is given:
//
//   - -data DIR serves a materialized synthetic hub (made by hubgen) from
//     our own registry, with the Docker Hub search API on -search-addr
//     (the two are distinct hosts in the real ecosystem and their URL
//     spaces collide under /v2/).
//   - -origin URL is a pull-through caching mirror in front of somebody
//     else's registry; it needs a -mirror-bytes budget.
//   - -nodes URL,... is the stateless router of a sharded cluster: requests
//     route on a consistent-hash ring over the nodes, reads fan across the
//     -replicas owners of each key (falling through on transport errors
//     or throttles), and concurrent cold pulls of one blob coalesce into a
//     single inter-node fetch. Nodes must already hold the content placed
//     on them — several -data processes over the same hub always qualify.
//
// -mirror-bytes puts a caching mirror with that byte budget in front of
// any of them (its bodies on -cache-dir when set, in memory otherwise).
//
// Usage:
//
//	hubregistry -data ./hub | -origin URL | -nodes URL,URL [-replicas 2]
//	            [-addr :5000] [-mirror-bytes 0] [-cache-dir ""]
//	            [-max-inflight 0] [-drain 10s]
//	            [-search-addr :5001] [-storage plain|dedup]
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
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
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
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run serves until ctx is done, then drains. Startup and the drain
// epilogue go to stdout, errors to stderr. It returns the exit code (2 for
// usage errors).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hubregistry", flag.ContinueOnError)
	fs.SetOutput(stderr)
	data := fs.String("data", "", "hub directory created by hubgen: serve it from our own registry")
	origin := fs.String("origin", "", "registry base URL to mirror (needs -mirror-bytes)")
	nodesList := fs.String("nodes", "", "comma-separated registry node base URLs to route over")
	replicas := fs.Int("replicas", topology.DefaultReplicas, "replica owners per key with -nodes (capped at the node count)")
	addr := fs.String("addr", ":5000", "registry listen address")
	mirrorBytes := fs.Int64("mirror-bytes", 0, "put a caching mirror with this byte budget in front (0 = none)")
	cacheDir := fs.String("cache-dir", "", "directory for on-disk mirror cache blobs (default: in memory)")
	maxInFlight := fs.Int("max-inflight", 0, "max concurrent requests per service (0 = unlimited)")
	drain := fs.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
	searchAddr := fs.String("search-addr", ":5001", "search API listen address (with -data)")
	storage := fs.String("storage", "plain", "blob storage backend with -data: plain (disk) or dedup (file-deduplicating pool)")
	withAnalytics := fs.Bool("analytics", false, "attach the live analytics service to the registry write path and serve its query API")
	analyticsAddr := fs.String("analytics-addr", ":5002", "analytics API listen address (with -analytics)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var urls []string
	for _, tok := range strings.Split(*nodesList, ",") {
		if url := strings.TrimRight(strings.TrimSpace(tok), "/"); url != "" {
			urls = append(urls, url)
		}
	}
	switch {
	case *data == "" && *origin == "" && urls == nil:
		fmt.Fprintln(stderr, "hubregistry: one of -data, -origin or -nodes is required")
		return 2
	case *data != "" && (*origin != "" || urls != nil):
		fmt.Fprintln(stderr, "hubregistry: -data serves our own registry; it does not combine with -origin or -nodes")
		return 2
	}

	topo := topology.Topology{Ingest: *withAnalytics, MirrorBytes: *mirrorBytes}
	site := topology.Site{
		Addr: *addr, MaxInFlight: *maxInFlight, DrainTimeout: *drain,
		Origin: *origin, NodeURLs: urls,
	}
	switch *storage {
	case "plain":
	case "dedup":
		topo.Storage = topology.Dedup
	default:
		fmt.Fprintf(stderr, "hubregistry: unknown -storage %q (want plain or dedup)\n", *storage)
		return 2
	}
	if urls != nil {
		topo.Nodes, topo.Replicas = len(urls), *replicas
	}
	group := &serve.Group{}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "hubregistry:", err)
		group.Shutdown(context.WithoutCancel(ctx))
		return 1
	}
	if *cacheDir != "" {
		var err error
		if site.CacheStore, err = blobstore.NewDisk(*cacheDir); err != nil {
			return fail(err)
		}
	}
	var st *core.HubState
	if *data != "" {
		var err error
		if st, err = core.LoadHubState(filepath.Join(*data, "hubstate.json")); err != nil {
			return fail(err)
		}
		if site.Store, err = blobstore.NewDisk(filepath.Join(*data, "blobs")); err != nil {
			return fail(err)
		}
		if topo.Storage == topology.Dedup {
			if site.Pool, err = dedupstore.NewDiskPool(filepath.Join(*data, "dedup-pool"), 0); err != nil {
				return fail(err)
			}
		}
		// The hub state installs after the ingest hook, so its tag
		// registrations backfill the live index with fallback walks over
		// the stored blobs.
		site.Repos, site.Fill = st.Repos, st.Install
	}
	stack, err := topology.Provision(group, topo, site)
	if err != nil {
		return fail(err)
	}

	switch {
	case st != nil:
		// The services beside our registry on addresses of their own: the
		// Hub search API, and the analytics API (the stack also serves it
		// under /analytics/ on the registry's address).
		start := func(name, addr string, h http.Handler) (*serve.Server, error) {
			srv := &serve.Server{Name: name, Addr: addr, Handler: h, MaxInFlight: *maxInFlight, DrainTimeout: *drain}
			return srv, group.Start(srv)
		}
		if dedup := stack.Origin.Dedup; dedup != nil {
			ds := dedup.Stats()
			fmt.Fprintf(stdout, "hubregistry: dedup backend holds %d blobs in %.1f MiB physical (%.2fx over %.1f MiB logical)\n",
				dedup.Len(), float64(ds.PhysicalBytes())/(1<<20), ds.SavingsRatio(),
				float64(ds.LogicalBytes)/(1<<20))
		}
		if live := stack.Origin.Live; live != nil {
			srv, err := start("analytics", *analyticsAddr, live.Handler())
			if err != nil {
				return fail(err)
			}
			ist := live.Stats()
			fmt.Fprintf(stdout, "hubregistry: analytics on %s (epoch %d; startup backfill walked %d layers, %d skipped)\n",
				srv.URL(), live.Epoch(), ist.FallbackWalks, ist.SkippedLayers)
		}
		search, err := start("search", *searchAddr, hubapi.NewServer(st.Repos, 634412.0/457627.0, st.Seed, 0))
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "hubregistry: serving %d repos, %d blobs on %s (search on %s)\n",
			len(st.Repos), stack.Origin.Registry.Blobs().Len(), stack.URL, search.URL())
	case *origin != "":
		fmt.Fprintf(stdout, "hubregistry: serving a mirror of %s on %s\n", *origin, stack.URL)
	default:
		fmt.Fprintf(stdout, "hubregistry: serving a router over %d nodes, %d replicas, on %s\n",
			len(urls), min(*replicas, len(urls)), stack.URL)
	}

	if err := <-group.ShutdownOnDone(ctx); err != nil {
		fmt.Fprintln(stderr, "hubregistry:", err)
		return 1
	}
	stats, _ := json.MarshalIndent(stack.Stats(), "", "  ")
	fmt.Fprintf(stdout, "hubregistry: drained and stopped; stats:\n%s\n", stats)
	return 0
}
