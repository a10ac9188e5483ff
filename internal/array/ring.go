// Package array is the host-side fleet layer over N simulated KV-CSD
// devices: the deployment the paper sketches in §II (Figure 2), where an
// array of computational storage devices sits behind NVMe-oF serving many
// hosts. One Array owns N complete device stacks (SSD + SoC engine + PCIe or
// NVMe-oF link) inside a single deterministic simulation and routes keyspace
// operations across them:
//
//   - placement: a seeded consistent-hash ring pins whole keyspaces to
//     devices; an optional key-range split mode spreads one large keyspace
//     over P partitions for parallel bandwidth;
//   - replication: writes fan out to R replicas, reads follow a read
//     preference and fail over to the next replica when a device errors;
//   - queries: range and secondary-index queries scatter to the owning
//     shards in parallel and gather their result streams in key order;
//   - background work: a fleet compaction scheduler staggers device
//     compactions under an admission cap so one device's background work
//     does not stall the array.
package array

import (
	"fmt"
	"sort"
)

// ringPoint is one virtual node on the hash ring.
type ringPoint struct {
	hash uint64
	dev  int
}

// Ring is a seeded consistent-hash ring over device IDs. Placement depends
// only on (seed, devices, name), so every run — and every process —
// computes the same shard map.
type Ring struct {
	seed    int64
	devices int
	points  []ringPoint
}

// virtualNodes is how many points each device owns on the ring: enough to
// keep per-device load within a few percent of even for small fleets.
const virtualNodes = 64

// NewRing builds a ring with virtualNodes points per device.
func NewRing(seed int64, devices int) *Ring {
	if devices < 1 {
		panic("array: ring needs at least one device")
	}
	r := &Ring{seed: seed, devices: devices}
	r.points = make([]ringPoint, 0, devices*virtualNodes)
	for d := 0; d < devices; d++ {
		for v := 0; v < virtualNodes; v++ {
			h := ringHash(seed, fmt.Sprintf("dev-%d-vn-%d", d, v))
			r.points = append(r.points, ringPoint{hash: h, dev: d})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].dev < r.points[j].dev
	})
	return r
}

// Devices returns the device count the ring was built over.
func (r *Ring) Devices() int { return r.devices }

// Owners returns the devices responsible for name: the ring successor of
// hash(name) plus the next replicas-1 distinct devices clockwise. The first
// entry is the primary. replicas is clamped to the device count.
func (r *Ring) Owners(name string, replicas int) []int {
	if replicas < 1 {
		replicas = 1
	}
	if replicas > r.devices {
		replicas = r.devices
	}
	h := ringHash(r.seed, name)
	// Binary search for the successor point.
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	owners := make([]int, 0, replicas)
	seen := make(map[int]bool, replicas)
	for n := 0; n < len(r.points) && len(owners) < replicas; n++ {
		pt := r.points[(i+n)%len(r.points)]
		if !seen[pt.dev] {
			seen[pt.dev] = true
			owners = append(owners, pt.dev)
		}
	}
	return owners
}

// ringHash mixes the seed and a name into a 64-bit point deterministically
// (FNV-1a over the name, then a splitmix64-style finalizer with the seed).
func ringHash(seed int64, name string) uint64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= fnvPrime
	}
	h ^= uint64(seed) * 0x9E3779B97F4A7C15
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	return h ^ (h >> 31)
}
