// Package cluster shards the registry horizontally: a consistent-hash
// ring places blobs and by-digest manifests across N registry nodes,
// Seed writes content to its R owner nodes, and Fanout is the origin a
// stateless Registry-v2 router reads the replicas through (the nodes and
// the router themselves are mounted by internal/topology) — the
// "millions of users" serving architecture the single hubregistry process
// cannot reach. The paper's workload is Docker Hub scale (§I: millions of
// repositories pulled by millions of clients); one listener over one blob
// store is the last single-node bottleneck in this reproduction.
//
// The ring is the placement authority. It is a pure function of the
// membership set: node IDs are expanded into virtual points by hashing
// "node-id#vnode-index", keys look up the first point clockwise of their
// own hash, and replica sets are the next R distinct nodes along the
// ring. Two processes that agree on the member list therefore agree on
// every placement — no coordination service required — and membership
// changes move only the keys whose arc changed hands (~1/N of the space
// per node joined or departed).
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
)

// DefaultVirtualNodes is the per-node virtual point count when a Ring is
// built with vnodes <= 0. More points smooth the load split between nodes
// (the per-node share concentrates around 1/N as points grow) at a small
// memory and rebuild cost.
const DefaultVirtualNodes = 160

// point is one virtual node position on the ring.
type point struct {
	hash uint64
	node string
}

// Ring is a consistent-hash ring with virtual nodes. Safe for concurrent
// use; lookups take a read lock only.
type Ring struct {
	vnodes int

	mu     sync.RWMutex
	points []point // sorted by hash
	nodes  []string
}

// NewRing builds an empty ring with the given virtual-node count per
// member (DefaultVirtualNodes when <= 0).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	return &Ring{vnodes: vnodes}
}

// hash64 positions a string on the ring. SHA-256 (truncated) keeps the
// point distribution uniform regardless of how regular the inputs are
// (node names differ by one digit; digests share an algorithm prefix) and
// is stable across processes and releases, so placement survives
// restarts.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Add inserts a member. Adding an existing member is a no-op.
func (r *Ring) Add(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, n := range r.nodes {
		if n == node {
			return
		}
	}
	r.nodes = append(r.nodes, node)
	sort.Strings(r.nodes)
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, point{hash: hash64(fmt.Sprintf("%s#%d", node, i)), node: node})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Owners returns the n distinct nodes responsible for key: the first
// point clockwise of the key's hash and the next n-1 distinct nodes along
// the ring. When n exceeds the membership, every member is returned. The
// order is deterministic — replica 0 is the primary.
func (r *Ring) Owners(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	owners := make([]string, 0, n)
	seen := make(map[string]struct{}, n)
	for i := 0; len(owners) < n && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if _, dup := seen[p.node]; dup {
			continue
		}
		seen[p.node] = struct{}{}
		owners = append(owners, p.node)
	}
	return owners
}
