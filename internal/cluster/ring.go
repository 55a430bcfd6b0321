// Package cluster scales the agingd fleet daemon from one process to a
// multi-node cluster: consistent-hash source routing over a membership
// ring, a node-to-node handoff protocol that migrates a source's
// versioned gob monitor state losslessly between nodes, and failure
// handling (heartbeat peer health, adoption of a dead node's sources
// from their last snapshots, forwarding of misrouted lines to the
// current owner).
//
// The design premise is the repository's central invariant: a source's
// detector-set state restores byte-for-byte from its gob SaveState blob.
// That makes ownership transfer exact — a migrated source's verdicts
// after handoff are identical to a monitor that never moved — so
// rebalancing and node failure cost zero detector state (the paper's
// lead-time argument: a detector that forgets its baseline on every
// topology change never warns in time).
//
// Ownership protocol, in one paragraph: the node that HOLDS a source's
// monitor ingests it, regardless of what the ring says (owned-wins).
// The ring decides where lines for unheld sources go, and where holders
// push sources when membership changes. A migration is
// acquire/ack/release: the origin freezes the source (lines for it
// block at the origin — never buffered, never reordered), detaches the
// monitor at a sample boundary, sends a CRC-framed envelope (acquire),
// the target attaches and acks, and the origin releases (unblocking the
// held lines toward the new owner). On any failure the origin re-attaches
// locally and retries later — the source never has zero or two owners.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultReplicas is the virtual-node count per member: enough that a
// 3-node ring splits the keyspace within a few percent of evenly.
const DefaultReplicas = 64

// ringPoint is one virtual node on the hash circle.
type ringPoint struct {
	hash   uint64
	member string
}

// Ring is an immutable consistent-hash ring over a member set. Nodes
// rebuild the ring on membership change rather than mutating it, so
// reads need no locks beyond the pointer swap in Node.
type Ring struct {
	points  []ringPoint
	members []string
}

// NewRing builds a ring with `replicas` virtual nodes per member
// (<=0 selects DefaultReplicas). Member order does not matter; an empty
// member set yields a ring whose Owner is always "".
func NewRing(replicas int, members []string) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	r := &Ring{
		points:  make([]ringPoint, 0, replicas*len(members)),
		members: append([]string(nil), members...),
	}
	sort.Strings(r.members)
	for _, m := range r.members {
		for i := 0; i < replicas; i++ {
			r.points = append(r.points, ringPoint{
				hash:   hash64(fmt.Sprintf("%s#%d", m, i)),
				member: m,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Tie-break identical hashes by member so the walk order is
		// deterministic across nodes regardless of insertion order.
		return r.points[i].member < r.points[j].member
	})
	return r
}

// Owner maps a source id to the member owning it ("" on an empty ring).
func (r *Ring) Owner(key string) string {
	if r == nil || len(r.points) == 0 {
		return ""
	}
	h := hash64(key)
	// First point clockwise from the key's hash, wrapping at the top.
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].member
}

// Members returns the ring's member set, sorted.
func (r *Ring) Members() []string {
	if r == nil {
		return nil
	}
	return append([]string(nil), r.members...)
}

// Size returns the member count.
func (r *Ring) Size() int {
	if r == nil {
		return 0
	}
	return len(r.members)
}

// Has reports whether member is on the ring.
func (r *Ring) Has(member string) bool {
	if r == nil {
		return false
	}
	i := sort.SearchStrings(r.members, member)
	return i < len(r.members) && r.members[i] == member
}

// hash64 is FNV-1a finished with a full-avalanche mix. Raw FNV-1a is too
// weak for ring placement: strings that differ only in a short suffix —
// "host:port#0".."host:port#63" vnode labels, or fleet ids like
// "web-001".."web-199" — hash to near-consecutive values, so each
// member's vnodes collapse into one contiguous arc and similar sources
// all land on the same member. The finalizer (the 64-bit murmur3 fmix)
// spreads those neighbours across the whole circle.
func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return mix64(h.Sum64())
}

// mix64 is the murmur3 64-bit finalizer: an avalanche bijection, every
// input bit flips ~half the output bits.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
