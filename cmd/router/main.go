// Command router runs the stateless Registry-v2 front of a sharded
// registry cluster: requests route on a consistent-hash ring over the
// given nodes, reads fan across the R replica owners of each key
// (falling through to the next copy on transport errors or throttles),
// and concurrent cold pulls of one blob coalesce into a single inter-node
// fetch. Bodies stream through without buffering; any node can drain with
// zero failed client requests as long as every key has a live replica.
//
// Placement is a pure function of the node list: blobs and by-digest
// manifests live on the ring owners of their digest, tags and by-tag
// manifest serving on the owners of their repository name. Nodes must
// already hold the content placed on them — registries seeded with full
// replicas (e.g. several hubregistry processes over the same state) always
// qualify, since every owner then holds everything.
//
// It runs on the serve chassis: panic recovery, an optional max-in-flight
// admission limit, and graceful shutdown — SIGINT/SIGTERM drains in-flight
// requests for up to -drain before the listener closes.
//
// Usage:
//
//	router -nodes http://host1:5000,http://host2:5000 [-replicas 2]
//	       [-addr :5200] [-cache-bytes 67108864] [-vnodes 160]
//	       [-max-inflight 0] [-drain 10s]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/topology"
)

func main() {
	nodesList := flag.String("nodes", "", "comma-separated registry node base URLs (required)")
	replicas := flag.Int("replicas", topology.DefaultReplicas, "replica owners per key (capped at the node count)")
	addr := flag.String("addr", ":5200", "router listen address")
	cacheBytes := flag.Int64("cache-bytes", topology.DefaultRouterCacheBytes, "coalescing-cache byte budget")
	vnodes := flag.Int("vnodes", cluster.DefaultVirtualNodes, "virtual points per node on the hash ring")
	maxInFlight := flag.Int("max-inflight", 0, "max concurrent requests (0 = unlimited)")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
	flag.Parse()
	if *nodesList == "" {
		fmt.Fprintln(os.Stderr, "router: -nodes is required")
		os.Exit(2)
	}

	var urls []string
	for _, tok := range strings.Split(*nodesList, ",") {
		if url := strings.TrimRight(strings.TrimSpace(tok), "/"); url != "" {
			urls = append(urls, url)
		}
	}
	if len(urls) == 0 {
		fmt.Fprintln(os.Stderr, "router: -nodes listed no usable URLs")
		os.Exit(2)
	}
	group := &serve.Group{}
	stack, err := topology.Provision(group,
		topology.Topology{Nodes: len(urls), Replicas: *replicas},
		topology.Site{
			Addr: *addr, NodeURLs: urls, VirtualNodes: *vnodes, RouterCacheBytes: *cacheBytes,
			MaxInFlight: *maxInFlight, DrainTimeout: *drain,
		})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("router: %d nodes, %d replicas, serving on %s\n", len(urls), min(*replicas, len(urls)), stack.URL)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := <-group.ShutdownOnDone(ctx); err != nil {
		fatal(err)
	}

	stats := stack.Router.Stats()
	out, _ := json.MarshalIndent(struct {
		cache.Stats
		HitRatio float64 `json:"hit_ratio"`
	}{stats, stats.HitRatio()}, "", "  ")
	fmt.Printf("router: drained and stopped; coalescing-cache stats:\n%s\n", out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "router:", err)
	os.Exit(1)
}
