package store

import (
	"fmt"
	"io"
	"os"

	"repro/internal/folder"
)

// maybeCompactLocked starts a background compaction when the live segment
// has outgrown the last snapshot by the configured ratio. Called with w.mu
// held after a successful sync; at most one compaction runs at a time.
func (w *WAL) maybeCompactLocked() {
	if w.compacting || w.closed || w.err != nil {
		return
	}
	if w.segBytes < w.opt.CompactMinBytes {
		return
	}
	if w.segBytes < int64(w.opt.CompactRatio)*w.snapBytes {
		return
	}
	w.compacting = true
	go w.compact()
}

// compact folds the log into a snapshot: rotate to a fresh segment at a
// consistent cabinet snapshot, write the snapshot durably, then delete the
// files it supersedes. The next segment is created — with its header and
// directory entry already durable — before the rotation window, so the
// cabinet pauses only for one flush of the pending tail plus a file-handle
// swap; the snapshot encode and write happen concurrently with new
// traffic, which lands in the new segment.
//
// Failure is never fatal to durability: until the snapshot's rename is
// synced, recovery keeps using the previous snapshot plus every segment, so
// a half-finished compaction only costs disk space and replay time.
func (w *WAL) compact() {
	w.mu.Lock()
	nextSeq := w.seg + 1
	usable := w.usableLocked()
	w.mu.Unlock()
	if !usable {
		w.finishCompaction(0, 0, false)
		return
	}
	// Only compaction rotates and compactions are single-flight, so
	// nextSeq cannot go stale between here and the swap below.
	newF, err := w.createSegment(nextSeq)
	if err != nil {
		w.opt.logf("store: compaction could not create segment %d (will retry): %v", nextSeq, err)
		w.finishCompaction(0, 0, false)
		return
	}

	var (
		rotErr error
		seq    uint64
	)
	// SnapshotAll holds every cabinet shard lock across the callback, so no
	// mutation — and therefore no journal record — can land between the
	// snapshot image and the segment rotation: the snapshot is exactly the
	// state through the old segment's last record.
	b := w.cab.SnapshotAll(func() {
		w.mu.Lock()
		for w.syncing {
			w.cond.Wait()
		}
		if w.closed || w.err != nil {
			rotErr = fmt.Errorf("store: wal closed or failed")
			w.mu.Unlock()
			return
		}
		w.syncing = true
		w.flushLocked() // drain the recorded tail into the old segment
		if w.err != nil {
			rotErr = w.err
		} else {
			w.f.Close()
			w.f = newF
			w.seg = nextSeq
			w.segBytes = 0
			newF = nil // adopted as the live segment
		}
		seq = w.seg
		w.syncing = false
		w.cond.Broadcast()
		w.mu.Unlock()
	})
	if newF != nil {
		// Rotation aborted: drop the pre-created segment. (A failed remove
		// just leaves an empty, validly-headered segment that recovery
		// replays as empty.)
		newF.Close()
		os.Remove(segPath(w.dir, nextSeq))
	}
	if rotErr != nil {
		w.finishCompaction(0, 0, false)
		return
	}

	if err := w.writeSnapshot(seq, b); err != nil {
		w.opt.logf("store: compaction of segment %d failed (will retry): %v", seq-1, err)
		w.finishCompaction(0, 0, false)
		return
	}
	w.pruneObsolete(seq)
	w.finishCompaction(seq, int64(folder.EncodedSize(b)), true)
	w.opt.logf("store: compacted through segment %d (%d folders)", seq-1, b.Len())
}

// finishCompaction publishes the compaction outcome and wakes Close waiters.
func (w *WAL) finishCompaction(seq uint64, snapBytes int64, ok bool) {
	w.mu.Lock()
	if ok {
		w.snapBytes = snapBytes
		w.snapSeq = seq
		w.firstSeg = seq
		w.stCompactions.Add(1)
		// A compaction moved the log's left edge: a shipper whose follower
		// sits below firstSeg must switch to snapshot catch-up.
		w.notifyLocked()
	}
	w.compacting = false
	w.cond.Broadcast()
	w.mu.Unlock()
}

// writeSnapshot durably writes snapshot seq via the shared atomic-write
// discipline (WriteFileAtomic).
func (w *WAL) writeSnapshot(seq uint64, b *folder.Briefcase) error {
	enc := appendFileHeader(make([]byte, 0, fileHdrSize+folder.EncodedSize(b)), snapMagic, seq)
	enc = folder.AppendBriefcase(enc, b)
	return WriteFileAtomic(snapPath(w.dir, seq), !w.opt.NoSync, func(f io.Writer) error {
		_, err := f.Write(enc)
		return err
	})
}

// pruneObsolete removes segments and snapshots superseded by snapshot seq.
// Only reached once that snapshot is durable; removal failures just leave
// dead files behind.
func (w *WAL) pruneObsolete(seq uint64) {
	segs, snaps, err := scanDir(w.dir)
	if err != nil {
		return
	}
	for _, s := range segs {
		if s < seq {
			os.Remove(segPath(w.dir, s))
		}
	}
	for _, s := range snaps {
		if s < seq {
			os.Remove(snapPath(w.dir, s))
		}
	}
}
