package core

import (
	"strings"
	"testing"

	"repro/internal/synth"
	"repro/internal/topology"
)

// figureText flattens the rendered figures into one comparable string.
func figureText(res *Result) string {
	var b strings.Builder
	for _, f := range res.Figures {
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestTopologiesBitIdentical: whatever sits under or in front of the
// registry — a pull-through mirror cold or pre-warmed, a consistent-hash
// cluster at one node and at four with two replicas, the deduplicating
// backend — must leave every rendered figure bit-identical to the direct
// wire run. Caches, routers and stores are transparent: same bytes, same
// failure taxonomy.
func TestTopologiesBitIdentical(t *testing.T) {
	spec := synth.MaterializeSpec(0.0001)
	want := figureText(run(t, study(spec, wire())))
	if want == "" {
		t.Fatal("direct wire run rendered no figures")
	}

	for _, c := range []struct {
		name  string
		topo  topology.Topology
		check func(t *testing.T, st topology.Stats)
	}{
		{"mirror-cold", topology.Topology{MirrorBytes: 8 << 20}, func(t *testing.T, st topology.Stats) {
			if st.Mirror.Misses == 0 {
				t.Error("mirror saw no misses — traffic did not flow through it")
			}
		}},
		{"mirror-warm", topology.Topology{MirrorBytes: 8 << 20, MirrorWarm: true}, func(t *testing.T, st topology.Stats) {
			if st.Mirror.Misses == 0 {
				t.Error("mirror saw no misses — traffic did not flow through it")
			}
			// The warm pass pulled everything first, so the measured
			// download must be mostly hits.
			if r := st.Mirror.HitRatio(); r < 0.5 {
				t.Errorf("warm-run hit ratio = %.3f, want >= 0.5", r)
			}
		}},
		{"cluster-n1", topology.Topology{Nodes: 1, Replicas: 1}, checkSharded(1)},
		{"cluster-n4-r2", topology.Topology{Nodes: 4, Replicas: 2}, checkSharded(4)},
		{"dedup", topology.Topology{Storage: topology.Dedup}, func(t *testing.T, st topology.Stats) {
			if st.Origin.Dedup.SavingsRatio() <= 1 {
				t.Fatalf("dedup backend stats %+v — nothing was deduplicated", st.Origin.Dedup)
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			res := run(t, study(spec, &c.topo))
			if got := figureText(res); got != want {
				t.Error("figures differ from the direct wire run")
			}
			c.check(t, res.Stack.Stats())
			// Every public latest image still downloads.
			if res.Download.Stats.Downloaded != len(res.Dataset.Images) {
				t.Errorf("downloaded %d, want %d", res.Download.Stats.Downloaded, len(res.Dataset.Images))
			}
		})
	}
}

// checkSharded asserts a clustered run's traffic reached the nodes and
// placement actually sharded it.
func checkSharded(nodes int) func(*testing.T, topology.Stats) {
	return func(t *testing.T, st topology.Stats) {
		if len(st.Nodes) != nodes {
			t.Fatalf("stats cover %d nodes, want %d", len(st.Nodes), nodes)
		}
		var nodeBlobGets int64
		served := 0
		for _, ns := range st.Nodes {
			nodeBlobGets += ns.Registry.BlobGets
			if ns.Registry.BlobGets > 0 {
				served++
			}
		}
		if nodeBlobGets == 0 {
			t.Error("no node served a blob — traffic did not flow through the cluster")
		}
		if nodes > 1 && served < 2 {
			t.Errorf("only %d of %d nodes served blobs — placement did not shard", served, nodes)
		}
		if st.Router.Misses == 0 {
			t.Error("router cache saw no misses — pulls did not go through the router")
		}
	}
}
