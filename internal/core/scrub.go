package core

import (
	"kvcsd/internal/sim"
	"kvcsd/internal/ssd"
)

// Recovery scrub. After a power cut, Manager.Recover rebuilds the keyspace
// table from the last durable metadata snapshot, but the media underneath the
// WRITABLE log clusters can disagree with it in both directions:
//
//   - behind the snapshot: nothing — every byte the snapshot counts as
//     flushed had media-completed before its Persist, and the snapshot
//     carries the sub-granule DRAM tail verbatim;
//   - beyond the snapshot: flushes acked after the last Persist left whole
//     granules on some zones, a torn partial granule on the zone the cut
//     caught mid-burst, and nothing on zones whose queued writes were lost.
//
// The scrub realigns every log cluster: it completes the torn granule and
// fills lagging zones so all write pointers agree again, reconstructing
// content from the snapshot tail where the logical stream is known (the
// repaired bytes are identical to what the torn burst was writing) and zeros
// beyond (zeros fail the frame magic check, so they can never resurface as
// records). It then rolls the KLOG forward over frames the snapshot never
// recorded, re-admitting each one only if its CRC holds and — for separated
// keyspaces — every value it points at lies within the VLOG's solid prefix.
// Finally it reclaims zones leaked by background jobs that died with the cut
// and rotates the metadata zone away from any torn metadata tail.

// RecoveryReport summarizes what Engine.Scrub inspected and repaired.
type RecoveryReport struct {
	// Keyspaces is how many WRITABLE keyspaces had logs to scrub.
	Keyspaces int
	// ScrubbedBytes counts log bytes read back or rewritten while realigning
	// zone write pointers (repair I/O, not including the frame scan).
	ScrubbedBytes int64
	// RepairedZones is how many zones needed write-pointer realignment.
	RepairedZones int
	// TornRecords counts invalid frames dropped at KLOG tails.
	TornRecords int
	// RecoveredFrames counts flush frames beyond the last snapshot that
	// revalidated and rejoined the durable log.
	RecoveredFrames int
	// RecoveredBytes is how many KLOG bytes those frames re-admitted.
	RecoveredBytes int64
	// LostBytes counts durable-but-unusable bytes discarded: torn frames,
	// repair padding, and log bytes past the last valid frame.
	LostBytes int64
	// OrphanZones is how many leaked zones (scratch of compactions or index
	// builds that died with the cut) were reset and reclaimed.
	OrphanZones int
}

// Scrub repairs the engine's on-media state after Recover. It must run
// exactly once, between Recover and the first command dispatch.
func (e *Engine) Scrub(p *sim.Proc) (*RecoveryReport, error) {
	rep := &RecoveryReport{}
	for _, name := range e.mgr.Names() {
		ks := e.mgr.table[name]
		if ks.state != StateWritable || ks.klog == nil {
			continue
		}
		rep.Keyspaces++
		if err := e.scrubKeyspace(p, ks, rep); err != nil {
			return rep, err
		}
	}
	orphans, orphanBytes, err := e.zm.sweepOrphans(p)
	if err != nil {
		return rep, err
	}
	rep.OrphanZones = orphans
	rep.LostBytes += orphanBytes
	if err := e.mgr.rotateMeta(p); err != nil {
		return rep, err
	}
	return rep, nil
}

// scrubKeyspace repairs one WRITABLE keyspace: VLOG first (its solid prefix
// bounds which rolled-forward KLOG frames are admissible), then KLOG repair
// and frame roll-forward.
func (e *Engine) scrubKeyspace(p *sim.Proc, ks *Keyspace, rep *RecoveryReport) error {
	// vSolid is the VLOG prefix guaranteed to hold real value bytes: what the
	// snapshot covers, extended by whatever stayed contiguously durable.
	var vSolid int64
	if ks.vlog != nil {
		vr, err := repairLogCluster(p, ks.vlog)
		if err != nil {
			return err
		}
		rep.ScrubbedBytes += vr.scrubbed
		rep.RepairedZones += vr.repairedZones
		vSolid = vr.snapLen
		if vr.media > vSolid {
			vSolid = vr.media
		}
		if vr.resume > vSolid {
			rep.LostBytes += vr.resume - vSolid
		}
	}

	kr, err := repairLogCluster(p, ks.klog)
	if err != nil {
		return err
	}
	rep.ScrubbedBytes += kr.scrubbed
	rep.RepairedZones += kr.repairedZones

	// Roll forward: scan for frames past the last validated extent. Durable
	// frames flushed after the final Persist revalidate here; the first
	// invalid frame (torn, zero padding, or dangling value pointers) ends the
	// log.
	scanStart := int64(0)
	if n := len(ks.logFrames); n > 0 {
		scanStart = ks.logFrames[n-1].End
	}
	off := scanStart
	validEnd := scanStart
	var frames logFrameReader
	for off < kr.resume {
		payload, n, err := frames.read(p, ks.klog, off, kr.resume)
		if err != nil {
			return err
		}
		rep.ScrubbedBytes += n
		if n == 0 || !frameReplayable(payload, e.cfg.DisableKVSeparation, vSolid) {
			rep.TornRecords++
			break
		}
		validEnd = off + n
		off = validEnd
		rep.RecoveredFrames++
	}
	if validEnd > scanStart {
		ks.logFrames = appendExtent(ks.logFrames, scanStart, validEnd)
		rep.RecoveredBytes += validEnd - scanStart
	}
	rep.LostBytes += kr.resume - validEnd
	return nil
}

// frameReplayable decides whether a rolled-forward frame may rejoin the log.
// Combined (no-separation) frames need only decode; separated frames must
// also reference values entirely within the VLOG's solid prefix — a frame
// whose values died in VLOG DRAM is unreplayable even if its own bytes
// survived.
func frameReplayable(payload []byte, combined bool, vSolid int64) bool {
	if combined {
		codec := pairCodec{}
		for pos := 0; pos < len(payload); {
			_, n, err := codec.Decode(payload[pos:], true)
			if err != nil || n == 0 {
				return false
			}
			pos += n
		}
		return true
	}
	codec := klogCodec{}
	for pos := 0; pos < len(payload); {
		rec, n, err := codec.Decode(payload[pos:], true)
		if err != nil || n == 0 {
			return false
		}
		pos += n
		if rec.isTombstone() {
			if int64(rec.vlogOff) > vSolid {
				return false
			}
			continue
		}
		if int64(rec.vlogOff)+int64(rec.vlen) > vSolid {
			return false
		}
	}
	return true
}

// logRepair reports one log cluster's realignment.
type logRepair struct {
	snapLen       int64 // logical length per the recovered snapshot
	media         int64 // contiguous durable prefix before repair (bytes)
	resume        int64 // granule-aligned point where appends resume (bytes)
	scrubbed      int64 // bytes rewritten to realign ragged zones
	repairedZones int
}

// repairLogCluster realigns an unsealed log cluster's zones after a power
// cut. A cluster stripes its stream round-robin over zones, so a cut during
// a flush burst leaves the zones ragged: some took their granules, one may
// hold a torn partial granule, others took nothing. Sequential-write zones
// cannot leave gaps, so the repair levels every zone up to the furthest
// granule any zone started — real content (from the snapshot tail) where the
// logical stream is known, zeros beyond — after which the cluster can append
// again and every byte below the resume point reads back from media.
func repairLogCluster(p *sim.Proc, c *Cluster) (logRepair, error) {
	rep := logRepair{snapLen: c.length}
	snapTail := append([]byte(nil), c.tail...)
	flushedSnap := rep.snapLen - int64(len(snapTail))
	// Checksum coverage ends at the snapshot's flushed prefix: granules the
	// repair rewrites or the roll-forward re-admits carry content the snapshot
	// never summed (KLOG frame CRCs vouch for rolled-forward records instead).
	if maxG := flushedSnap / int64(c.blockSz); int64(len(c.sums)) > maxG {
		c.sums = c.sums[:maxG]
		c.markSums()
	}
	if len(c.stripes) == 0 {
		rep.media = flushedSnap
		rep.resume = flushedSnap
		return rep, nil
	}

	dev := c.zm.dev
	B := int64(c.blockSz)
	w := int64(c.zm.cfg.StripeWidth)
	gps := int64(c.granulesPerStripe())

	// Survey: how far along is each zone? A zone at slot q of its stripe owns
	// the granules with residue r = (q - offset) mod w; its k-th granule is
	// stripe-relative granule k*w + r at in-zone offset k*blockSz.
	type zoneSurvey struct {
		zone    int
		base    int64 // first granule index of the zone's stripe
		r       int64 // round-robin residue within the stripe
		full    int64 // whole granules on media
		partial int64 // bytes of a torn partial granule (< blockSz)
	}
	var zs []zoneSurvey
	for si, stripe := range c.stripes {
		base := int64(si) * gps
		for q, zone := range stripe {
			zi, err := dev.Zone(zone)
			if err != nil {
				return rep, err
			}
			zs = append(zs, zoneSurvey{
				zone:    zone,
				base:    base,
				r:       (int64(q) - int64(c.offset) + w) % w,
				full:    zi.WritePointer / B,
				partial: zi.WritePointer % B,
			})
		}
	}

	// media: the contiguous durable prefix ends at the first granule any zone
	// is missing. resume: one past the last granule any zone started — the
	// level all zones must reach before appends can continue.
	media := int64(len(c.stripes)) * gps
	var resume int64
	for _, z := range zs {
		if first := z.base + z.full*w + z.r; first < media {
			media = first
		}
		k := z.full
		if z.partial > 0 {
			k++
		}
		if k > 0 {
			if end := z.base + (k-1)*w + z.r + 1; end > resume {
				resume = end
			}
		}
	}

	// granule reconstructs the logical bytes of granule g. Every granule
	// needing repair lies at or beyond the snapshot's flushed prefix, so the
	// snapshot tail holds its real content up to snapLen; beyond that only
	// zeros are safe (they self-reject in frame scans).
	granule := func(g int64) []byte {
		buf := make([]byte, B)
		lo := g * B
		s, e := lo, lo+B
		if s < flushedSnap {
			s = flushedSnap
		}
		if e > rep.snapLen {
			e = rep.snapLen
		}
		if s < e {
			copy(buf[s-lo:], snapTail[s-flushedSnap:e-flushedSnap])
		}
		return buf
	}

	for _, z := range zs {
		rel := resume - z.base - z.r
		var need int64
		if rel > 0 {
			need = (rel + w - 1) / w
		}
		if need > int64(c.perZone) {
			need = int64(c.perZone)
		}
		k := z.full
		fixed := false
		if z.partial > 0 {
			// Complete the torn granule by appending its missing suffix.
			want := granule(z.base + k*w + z.r)
			if err := dev.WriteZone(p, z.zone, want[z.partial:]); err != nil {
				return rep, err
			}
			rep.scrubbed += B - z.partial
			k++
			fixed = true
		}
		for ; k < need; k++ {
			if err := dev.WriteZone(p, z.zone, granule(z.base+k*w+z.r)); err != nil {
				return rep, err
			}
			rep.scrubbed += B
			fixed = true
		}
		if fixed {
			rep.repairedZones++
		}
	}

	rep.media = media * B
	rep.resume = resume * B
	// Logical state: the snapshot is authoritative where media lags (its tail
	// re-covers the gap); durable granules past it extend the stream, with
	// the KLOG roll-forward deciding what is actually usable.
	newLen := rep.snapLen
	if rep.resume > newLen {
		newLen = rep.resume
	}
	c.length = newLen
	if rep.resume < rep.snapLen {
		c.tail = append([]byte(nil), snapTail[rep.resume-flushedSnap:]...)
	} else {
		c.tail = nil
	}
	return rep, nil
}

// sweepOrphans resets non-empty zones that belong to no recovered cluster —
// scratch left behind by compactions or index builds that died with the power
// cut — returning them to the free pool. It reports the zone count and the
// bytes discarded.
func (zm *ZoneManager) sweepOrphans(p *sim.Proc) (int, int64, error) {
	count := 0
	var lost int64
	for z := metadataZones; z < zm.dev.NumZones(); z++ {
		if _, ok := zm.used[z]; ok {
			continue
		}
		zi, err := zm.dev.Zone(z)
		if err != nil {
			return count, lost, err
		}
		if zi.State == ssd.ZoneEmpty {
			continue
		}
		lost += zi.WritePointer
		if err := zm.dev.ResetZone(p, z); err != nil {
			return count, lost, err
		}
		count++
	}
	return count, lost, nil
}
