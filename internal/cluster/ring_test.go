package cluster

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

func ringOf(vnodes int, nodes ...string) *Ring {
	r := NewRing(vnodes)
	for _, n := range nodes {
		r.Add(n)
	}
	return r
}

// owner is the primary owner of key.
func owner(r *Ring, key string) string { return r.Owners(key, 1)[0] }

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("sha256:key-%d", i)
	}
	return out
}

// Placement must be a pure function of the membership set: same members →
// same owners, regardless of process lifetime or insertion order. This is
// what lets a restarted router agree with a long-running one.
func TestRingDeterministicAcrossRestartsAndInsertOrder(t *testing.T) {
	a := ringOf(0, "node0", "node1", "node2", "node3")
	b := ringOf(0, "node3", "node1", "node0", "node2") // "restart", different order
	for _, k := range keys(500) {
		oa := a.Owners(k, 2)
		ob := b.Owners(k, 2)
		if !reflect.DeepEqual(oa, ob) {
			t.Fatalf("placement differs for %s: %v vs %v", k, oa, ob)
		}
	}
}

func TestRingOwnersDistinct(t *testing.T) {
	r := ringOf(0, "node0", "node1", "node2", "node3", "node4")
	for _, k := range keys(300) {
		for _, n := range []int{1, 2, 3, 5} {
			owners := r.Owners(k, n)
			if len(owners) != n {
				t.Fatalf("Owners(%s,%d) returned %d nodes", k, n, len(owners))
			}
			seen := map[string]bool{}
			for _, o := range owners {
				if seen[o] {
					t.Fatalf("Owners(%s,%d) repeated node %s: %v", k, n, o, owners)
				}
				seen[o] = true
			}
		}
	}
}

func TestRingOwnersCappedAtMembership(t *testing.T) {
	r := ringOf(0, "a", "b")
	if got := r.Owners("k", 5); len(got) != 2 {
		t.Fatalf("want all 2 members, got %v", got)
	}
	if got := NewRing(0).Owners("k", 2); got != nil {
		t.Fatalf("empty ring should return nil, got %v", got)
	}
}

// Adding one node to an N-node ring must move roughly 1/(N+1) of primary
// placements — the consistent-hashing contract; a modulo scheme would
// move nearly all of them.
func TestRingMinimalMovementOnAdd(t *testing.T) {
	const n = 4
	r := ringOf(0, "node0", "node1", "node2", "node3")
	ks := keys(20000)
	before := make([]string, len(ks))
	for i, k := range ks {
		before[i] = owner(r, k)
	}
	r.Add("node4")
	moved := 0
	for i, k := range ks {
		after := owner(r, k)
		if after != before[i] {
			if after != "node4" {
				t.Fatalf("key %s moved %s → %s, not to the new node", k, before[i], after)
			}
			moved++
		}
	}
	frac := float64(moved) / float64(len(ks))
	ideal := 1.0 / (n + 1)
	if frac > ideal*1.5 {
		t.Fatalf("add moved %.1f%% of keys, want ≈%.1f%% (+50%% slack)", 100*frac, 100*ideal)
	}
	if frac < ideal*0.5 {
		t.Fatalf("add moved only %.1f%% of keys — new node is underloaded", 100*frac)
	}
}

// Removing a node must reassign only that node's keys: the ring of the
// survivors agrees with the full ring on every key node2 did not own.
func TestRingMinimalMovementOnRemove(t *testing.T) {
	r := ringOf(0, "node0", "node1", "node2", "node3", "node4")
	survivors := ringOf(0, "node0", "node1", "node3", "node4")
	for _, k := range keys(20000) {
		before, after := owner(r, k), owner(survivors, k)
		if before != "node2" && after != before {
			t.Fatalf("key %s moved %s → %s though its owner stayed", k, before, after)
		}
	}
}

// Virtual nodes must keep the load split near-uniform: every node's share
// of 20k keys should be within ±35% of 1/N at the default vnode count.
func TestRingBalance(t *testing.T) {
	const n = 5
	r := ringOf(0, "node0", "node1", "node2", "node3", "node4")
	counts := map[string]int{}
	ks := keys(20000)
	for _, k := range ks {
		counts[owner(r, k)]++
	}
	ideal := float64(len(ks)) / n
	for node, c := range counts {
		dev := math.Abs(float64(c)-ideal) / ideal
		if dev > 0.35 {
			t.Fatalf("node %s holds %d keys (ideal %.0f, deviation %.0f%%)", node, c, ideal, 100*dev)
		}
	}
}

func TestRingAddRemoveIdempotent(t *testing.T) {
	r := ringOf(8, "a", "b")
	r.Add("a") // duplicate add
	if !reflect.DeepEqual(r.nodes, []string{"a", "b"}) || len(r.points) != 16 {
		t.Fatalf("duplicate add changed membership: %v (%d points)", r.nodes, len(r.points))
	}
	// A one-member ring resolves every arc to its member.
	survivor := ringOf(8, "b")
	for _, k := range keys(50) {
		if o := owner(survivor, k); o != "b" {
			t.Fatalf("key %s owned by %s on a ring of b alone", k, o)
		}
	}
}
