// Package gateway is the pacd fleet front-end: a stdlib-only reverse
// proxy that consistent-hash-routes simulation and experiment jobs to
// backend pacd nodes by their canonical options hash, health-checks the
// backends, ejects and routes around failing nodes with the daemon's
// backoff/retry discipline, and fans sweep experiments out across the
// fleet with a deterministic table merge.
//
// Routing is the whole point: a pacd node's value is its result store,
// which holds only what that node computed, so a request that lands on
// the wrong node turns a store hit into a full re-simulation. The
// gateway resolves every simulate request through the same
// server.ResolveSimulate/OptionsHash path the backends use, so the shard
// key is exactly the key the backend's store will use — identical
// requests always meet the same store (DESIGN.md §10 documents the
// locality contract).
package gateway

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"sync"
)

// DefaultReplicas is the virtual-node count per backend. 128 replicas
// keep the expected load imbalance tight: over 100k uniform keys the
// most-loaded of up to 8 nodes stays within ~1.35x of the mean, and the
// ring tests gate a generous 2x bound (TestRingSpreadBound documents the
// measured figures).
const DefaultReplicas = 128

// Ring is a consistent-hash ring over named nodes. Each node owns
// `replicas` pseudo-random points on a uint64 circle; a key is owned by
// the node of the first point clockwise from the key's hash. Adding or
// removing one node therefore remaps only the keys in the arcs that
// node's points own — every other key keeps its owner (the minimal-
// disruption property FuzzRing enforces).
//
// Ring is safe for concurrent use. Membership is the *configured* fleet:
// health-based ejection does not remove nodes from the ring (keys must
// return to their primary owner the moment it recovers); the gateway
// instead skips dead candidates at lookup time via Candidates.
type Ring struct {
	replicas int

	mu     sync.RWMutex
	nodes  map[string]struct{}
	points []ringPoint // sorted by (hash, node)
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing creates a ring with the given virtual-node count per node
// (<= 0 uses DefaultReplicas).
func NewRing(replicas int, nodes ...string) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	r := &Ring{replicas: replicas, nodes: make(map[string]struct{})}
	for _, n := range nodes {
		r.Add(n)
	}
	return r
}

// hashKey maps an arbitrary key onto the circle. SHA-256 keeps the point
// distribution uniform regardless of key shape (hex hashes, URLs, node
// names) without a seed to manage.
func hashKey(key string) uint64 {
	sum := sha256.Sum256([]byte(key))
	return binary.BigEndian.Uint64(sum[:8])
}

// pointHash derives one virtual-node point.
func pointHash(node string, replica int) uint64 {
	return hashKey(node + "#" + strconv.Itoa(replica))
}

// Add inserts a node (idempotent).
func (r *Ring) Add(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.nodes[node]; ok {
		return
	}
	r.nodes[node] = struct{}{}
	for i := 0; i < r.replicas; i++ {
		r.points = append(r.points, ringPoint{hash: pointHash(node, i), node: node})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
}

// Remove deletes a node (idempotent). Only keys owned by the removed
// node change owner.
func (r *Ring) Remove(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.nodes[node]; !ok {
		return
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Nodes returns the members sorted by name.
func (r *Ring) Nodes() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len returns the member count.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.nodes)
}

// Owner returns the node owning key — the request's primary shard, and
// the affinity target the pac_gw_affinity_* metrics measure against. ok
// is false on an empty ring.
func (r *Ring) Owner(key string) (node string, ok bool) {
	c := r.Candidates(key, 1)
	if len(c) == 0 {
		return "", false
	}
	return c[0], true
}

// Candidates returns up to n distinct nodes in ring order starting at
// the key's owner: the failover sequence for the key. Successive nodes
// are the owners the key would fall to if every earlier candidate left
// the ring, so retrying down this list preserves as much affinity as a
// degraded fleet allows.
func (r *Ring) Candidates(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	h := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]struct{}, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if _, dup := seen[p.node]; dup {
			continue
		}
		seen[p.node] = struct{}{}
		out = append(out, p.node)
	}
	return out
}

// Spread measures load balance: it maps `samples` synthetic uniform keys
// and returns the per-node ownership counts plus the max/mean ratio.
// The ring tests document and gate the bound; operators can call it to
// sanity-check a fleet layout.
func (r *Ring) Spread(samples int) (counts map[string]int, maxOverMean float64) {
	counts = make(map[string]int)
	if r.Len() == 0 || samples <= 0 {
		return counts, 0
	}
	for i := 0; i < samples; i++ {
		if n, ok := r.Owner("spread-sample-" + strconv.Itoa(i)); ok {
			counts[n]++
		}
	}
	mean := float64(samples) / float64(r.Len())
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	return counts, float64(max) / mean
}

// String renders a short diagnostic form.
func (r *Ring) String() string {
	return fmt.Sprintf("ring(%d nodes, %d replicas)", r.Len(), r.replicas)
}
