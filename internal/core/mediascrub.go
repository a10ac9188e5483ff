package core

import (
	"errors"
	"fmt"

	"kvcsd/internal/sim"
	"kvcsd/internal/ssd"
)

// Media scrub: the background integrity walk over every keyspace's persisted
// extents. Unlike the crash-recovery Scrub (scrub.go), which realigns zone
// write pointers once after a power cut, the media scrub runs periodically
// during normal operation: it reads every checksummed granule back, verifies
// it, and reports the corrupt ones for replica repair. Scrub I/O goes through
// the same channels and its checksum work through the same SoC cores as
// foreground commands, so — like paper compaction — it contends honestly.

// scrubChunkGranules bounds one scan burst so a scrub pass yields the SoC
// between chunks instead of monopolizing it.
const scrubChunkGranules = 64

// ErrExtentGone reports an extent ref that no longer resolves (the keyspace
// or cluster was released between scrub and repair).
var ErrExtentGone = errors.New("core: extent no longer exists")

// clusterForExtent resolves an extent ref to its cluster.
func (e *Engine) clusterForExtent(ref ExtentRef) (*Cluster, error) {
	ks, ok := e.mgr.Get(ref.Keyspace)
	if !ok {
		return nil, fmt.Errorf("%w: keyspace %s", ErrExtentGone, ref.Keyspace)
	}
	var c *Cluster
	switch ref.Kind {
	case ExtentKLOG:
		c = ks.klog
	case ExtentVLOG:
		c = ks.vlog
	case ExtentPIDX:
		c = ks.pidx
	case ExtentSorted:
		c = ks.sorted
	case ExtentSIDX:
		if si, ok := ks.secondary[ref.Index]; ok {
			c = si.cluster
		}
	default:
		return nil, fmt.Errorf("core: bad extent kind %d", ref.Kind)
	}
	if c == nil {
		return nil, fmt.Errorf("%w: %s/%s", ErrExtentGone, ref.Keyspace, ref.Kind)
	}
	return c, nil
}

// scrubTarget is one cluster of one keyspace with its extent addressing.
type scrubTarget struct {
	kind  ExtentKind
	index string
	c     *Cluster
}

// scrubTargets enumerates a keyspace's clusters in a fixed order.
func scrubTargets(ks *Keyspace) []scrubTarget {
	var out []scrubTarget
	add := func(kind ExtentKind, index string, c *Cluster) {
		if c != nil {
			out = append(out, scrubTarget{kind: kind, index: index, c: c})
		}
	}
	add(ExtentKLOG, "", ks.klog)
	add(ExtentVLOG, "", ks.vlog)
	add(ExtentPIDX, "", ks.pidx)
	add(ExtentSorted, "", ks.sorted)
	for _, n := range ks.secondaryNames() {
		if si := ks.secondary[n]; si.built() {
			add(ExtentSIDX, n, si.cluster)
		}
	}
	return out
}

// raced reports scan errors that mean the cluster was released or reset under
// the scrubber (compaction retiring logs, keyspace deletion) — the scrub
// skips the cluster rather than failing.
func raced(err error) bool {
	return errors.Is(err, ssd.ErrReadBeyondWP) || errors.Is(err, ssd.ErrZoneState) ||
		errors.Is(err, ErrReadBounds) || errors.Is(err, errReleased)
}

// MediaScrub walks every keyspace's persisted extents, verifying each
// checksummed granule against its recorded CRC, and returns the corrupt ones.
// Zones accumulating quarantineThreshold corrupt granules (across passes) are
// quarantined: the cluster is rebuilt onto a freshly allocated zone — corrupt
// bytes copy as-is and still need extent repair — and the bad zone never
// allocates again.
func (e *Engine) MediaScrub(p *sim.Proc) (*ScrubReport, error) {
	rep := &ScrubReport{}
	for _, name := range e.mgr.Names() {
		ks, ok := e.mgr.Get(name)
		if !ok || ks.pendingDelete {
			continue
		}
		rep.Keyspaces++
		for _, tgt := range scrubTargets(ks) {
			if err := e.scrubCluster(p, name, tgt, rep); err != nil {
				return rep, err
			}
		}
	}
	return rep, nil
}

// scrubCluster chunk-scans one cluster, recording corrupt granules and
// applying the quarantine policy.
func (e *Engine) scrubCluster(p *sim.Proc, name string, tgt scrubTarget, rep *ScrubReport) error {
	for lo := int64(0); lo < tgt.c.mediaGranules(); lo += scrubChunkGranules {
		if e.halted {
			return nil
		}
		hi := lo + scrubChunkGranules - 1
		corrupt, scanned, err := tgt.c.scanGranules(p, lo, hi)
		if err != nil {
			if raced(err) {
				return nil
			}
			return err
		}
		if scanned == 0 {
			break
		}
		// Checksumming is SoC CPU work, priced like block assembly. The
		// charge yields: a cluster released meanwhile is skipped like one
		// released during the read.
		blocks := scanned / int64(tgt.c.blockSz)
		e.cpu[phaseScrub].BlockOp(p, blocks)
		e.st.ScrubbedBytes.Add(scanned)
		rep.ScannedBytes += scanned
		if tgt.c.stripes == nil {
			return nil
		}
		for _, cg := range corrupt {
			zone := cg.zone
			e.st.CorruptDetected.Add(1)
			rep.Corrupt = append(rep.Corrupt, ExtentRef{
				Keyspace: name, Kind: tgt.kind, Index: tgt.index,
				Granule: cg.g, Zone: int32(zone),
			})
			e.zoneStrikes[zone]++
			if e.zoneStrikes[zone] >= quarantineThreshold {
				delete(e.zoneStrikes, zone)
				if _, err := tgt.c.replaceZone(p, zone); err != nil {
					if errors.Is(err, ErrNoZones) {
						continue // no spare zones: keep serving degraded
					}
					return err
				}
				rep.Quarantined++
			}
		}
	}
	return nil
}

// ReadExtent returns the verified media bytes of one granule — the donor side
// of replica repair. Corruption on the donor surfaces as *CorruptionError
// with keyspace attribution.
func (e *Engine) ReadExtent(p *sim.Proc, ref ExtentRef) ([]byte, error) {
	c, err := e.clusterForExtent(ref)
	if err != nil {
		return nil, err
	}
	data, err := c.ReadGranule(p, ref.Granule)
	var ce *CorruptionError
	if errors.As(err, &ce) {
		ce.Keyspace = ref.Keyspace
	}
	return data, err
}

// RepairExtent rewrites one granule from a healthy replica's bytes. The
// payload must match the granule's recorded checksum; the zone's strike count
// clears on success so a repaired zone stops marching toward quarantine.
func (e *Engine) RepairExtent(p *sim.Proc, ref ExtentRef, data []byte) error {
	c, err := e.clusterForExtent(ref)
	if err != nil {
		return err
	}
	if err := c.RepairGranule(p, ref.Granule, data); err != nil {
		return err
	}
	zone, _ := c.locate(ref.Granule)
	delete(e.zoneStrikes, zone)
	return nil
}

// CorruptExtent flips seeded bits across one granule of the addressed cluster
// — the targeted fault-injection verb behind `kvcsd-cli corrupt`. Returns the
// number of bit flips applied.
func (e *Engine) CorruptExtent(ref ExtentRef, bits int) (int, error) {
	c, err := e.clusterForExtent(ref)
	if err != nil {
		return 0, err
	}
	if ref.Granule < 0 || ref.Granule >= c.mediaGranules() {
		return 0, ErrReadBounds
	}
	zone, off := c.locate(ref.Granule)
	return e.zm.dev.CorruptBlock(zone, off, int64(c.blockSz), bits)
}
