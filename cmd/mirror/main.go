// Command mirror runs a pull-through caching registry in front of an
// origin registry (e.g. one served by hubregistry). Clients point their
// pulls at the mirror; blob and by-digest manifest traffic is absorbed by
// a byte-budgeted LRU cache, and misses stream from the origin while the
// first client downloads.
//
// It runs on the serve chassis: panic recovery, an optional max-in-flight
// admission limit, and graceful shutdown — SIGINT/SIGTERM drains in-flight
// requests for up to -drain before the listener closes. On exit the cache
// counters are printed so a load run can be scored.
//
// Usage:
//
//	mirror -origin http://localhost:5000 [-addr :5100]
//	       [-cache-bytes 268435456] [-cache-dir ""] [-max-inflight 0]
//	       [-drain 10s]
//
// With -cache-dir the cache body lives on disk (survives nothing — the
// index is in memory — but bounds RSS); by default it is in memory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/blobstore"
	"repro/internal/cache"
	"repro/internal/serve"
	"repro/internal/topology"
)

func main() {
	origin := flag.String("origin", "", "origin registry base URL (required)")
	addr := flag.String("addr", ":5100", "mirror listen address")
	cacheBytes := flag.Int64("cache-bytes", 256<<20, "cache byte budget")
	cacheDir := flag.String("cache-dir", "", "directory for on-disk cache blobs (default: in memory)")
	shards := flag.Int("cache-shards", cache.DefaultShards, "cache stripe count")
	maxInFlight := flag.Int("max-inflight", 0, "max concurrent requests (0 = unlimited)")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
	flag.Parse()
	if *origin == "" {
		fmt.Fprintln(os.Stderr, "mirror: -origin is required")
		os.Exit(2)
	}

	site := topology.Site{
		Addr: *addr, Origin: *origin, CacheShards: *shards,
		MaxInFlight: *maxInFlight, DrainTimeout: *drain,
	}
	if *cacheDir != "" {
		var err error
		if site.CacheStore, err = blobstore.NewDisk(*cacheDir); err != nil {
			fatal(err)
		}
	}
	group := &serve.Group{}
	stack, err := topology.Provision(group, topology.Topology{MirrorBytes: *cacheBytes}, site)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("mirror: fronting %s on %s, cache budget %d bytes (%d stripes)\n",
		*origin, stack.URL, *cacheBytes, *shards)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := <-group.ShutdownOnDone(ctx); err != nil {
		fatal(err)
	}

	stats := stack.Mirror.Stats()
	out, _ := json.MarshalIndent(struct {
		cache.Stats
		HitRatio float64 `json:"hit_ratio"`
	}{stats, stats.HitRatio()}, "", "  ")
	fmt.Printf("mirror: drained and stopped; cache stats:\n%s\n", out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mirror:", err)
	os.Exit(1)
}
