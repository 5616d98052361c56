package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"gbmqo/internal/codec"
	"gbmqo/internal/exec"
)

// Segment layout:
//
//	[8B magic "GBMQWAL1"]
//	frame*   (codec.AppendFrame: [4B payload len LE][4B CRC32C(payload) LE][payload])
//
// A segment is named wal-%020d.log where the number is the sequence of its
// first record; the active segment is the numerically largest. A torn write
// (short frame or garbage tail) fails either the length bound or the CRC, and
// replay truncates the segment there instead of failing.

const (
	segMagic   = "GBMQWAL1"
	segPrefix  = "wal-"
	segSuffix  = ".log"
	frameHdr   = codec.FrameHeader
	defaultSeg = 4 << 20
	// maxFrame bounds a single frame so a corrupt length field cannot drive a
	// huge allocation during replay.
	maxFrame = 64 << 20
)

// Policy selects when the writer fsyncs the active segment.
type Policy int

const (
	// FsyncAlways syncs after every append: acknowledged appends survive any
	// crash (the durability mode the crash suite gates on).
	FsyncAlways Policy = iota
	// FsyncInterval syncs at most once per interval from a background
	// flusher: bounded data loss, near-FsyncOff append latency.
	FsyncInterval
	// FsyncOff never syncs explicitly; the OS page cache decides. Survives
	// process death (the kernel still has the pages) but not power loss.
	FsyncOff
)

func (p Policy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	default:
		return "off"
	}
}

// ParsePolicy maps the -fsync flag values to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "off":
		return FsyncOff, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval, or off)", s)
}

// Options configures a Writer.
type Options struct {
	// Dir is the WAL directory (created if absent).
	Dir string
	// SegmentBytes rotates the active segment once it exceeds this size
	// (default 4 MiB).
	SegmentBytes int64
	// Policy selects the fsync mode (default FsyncAlways).
	Policy Policy
	// Interval is the background sync period under FsyncInterval
	// (default 50ms).
	Interval time.Duration
}

// Stats is a point-in-time snapshot of writer counters.
type Stats struct {
	Appends  uint64
	Fsyncs   uint64
	Bytes    uint64
	Segments int
	// NextSeq is the sequence the next record will be assigned.
	NextSeq uint64
	// LastSync is when the active segment was last fsynced (zero if never).
	LastSync time.Time
	// DirtyBytes counts bytes written since the last fsync.
	DirtyBytes uint64
	// SyncErr is the sticky background-fsync failure under FsyncInterval (nil
	// while healthy). Once set, Append refuses new records: after a failed
	// fsync the kernel may have dropped the dirty pages, so durability cannot
	// be re-promised by a later sync succeeding.
	SyncErr error
}

// Writer appends framed records to the active segment, rotating and syncing
// per Options. Safe for concurrent use.
type Writer struct {
	opts Options

	mu       sync.Mutex
	f        *os.File
	segStart uint64 // first seq of the active segment
	segSize  int64
	nextSeq  uint64
	segments int // segment files in Dir, counted as they come and go
	closed   bool

	appends    uint64
	fsyncs     uint64
	bytes      uint64
	dirty      uint64
	lastSync   time.Time
	flushStop  chan struct{}
	flushDone  chan struct{}
	flushErrMu sync.Mutex
	flushErr   error
}

// ErrClosed is returned by operations on a closed Writer.
var ErrClosed = errors.New("wal: writer closed")

// Open creates (or continues) the log in opts.Dir. The writer always starts a
// fresh segment whose first sequence is one past the highest committed-or-torn
// sequence on disk, so a recovering process never appends into a segment whose
// tail it may have just truncated.
func Open(opts Options) (*Writer, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSeg
	}
	if opts.Interval <= 0 {
		opts.Interval = 50 * time.Millisecond
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	next, err := nextSeqOnDisk(opts.Dir)
	if err != nil {
		return nil, err
	}
	// A previous process that opened the log but never committed an append can
	// leave a segment bearing exactly the first sequence the new writer wants.
	// Reclaim the name only when the segment holds no valid record at all
	// (empty or wholly torn — nothing acknowledged lives in it). It can also
	// hold valid frames that never advanced the scan: an Append that rotates
	// mid-call makes a following AppendAbort the first frame of the new
	// segment, carrying the OLDER sequence. Deleting such a segment would
	// destroy the durable abort marker and resurrect a never-acknowledged
	// append on the next recovery — instead the label itself is burned: any
	// torn tail is truncated and the writer starts one sequence past the name.
	stale := filepath.Join(opts.Dir, segName(next))
	valid := 0
	err = scanSegment(stale, func(*Record) error { valid++; return nil })
	var tear *tornError
	switch {
	case errors.Is(err, os.ErrNotExist):
	case err != nil && !errors.As(err, &tear):
		return nil, err
	case valid == 0:
		if err := os.Remove(stale); err != nil {
			return nil, err
		}
	default:
		if tear != nil {
			if err := os.Truncate(stale, tear.off); err != nil {
				return nil, err
			}
		}
		next++
	}
	segs, err := listSegments(opts.Dir)
	if err != nil {
		return nil, err
	}
	w := &Writer{opts: opts, nextSeq: next, segments: len(segs)}
	if err := w.rotateLocked(); err != nil {
		return nil, err
	}
	if opts.Policy == FsyncInterval {
		w.flushStop = make(chan struct{})
		w.flushDone = make(chan struct{})
		go w.flushLoop()
	}
	return w, nil
}

// nextSeqOnDisk scans existing segments and returns one past the highest
// sequence present (committed or torn — a torn record's sequence is burned,
// never reused, so replay's "skip aborted/unseen" logic stays simple).
func nextSeqOnDisk(dir string) (uint64, error) {
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		return 1, err
	}
	last := segs[len(segs)-1]
	top := last.firstSeq - 1
	err = scanSegment(filepath.Join(dir, last.name), func(rec *Record) error {
		top = max(top, rec.Seq)
		return nil
	})
	if err != nil {
		var te *tornError
		if !errors.As(err, &te) {
			return 0, err
		}
	}
	return top + 1, nil
}

type segInfo struct {
	name     string
	firstSeq uint64
}

func listSegments(dir string) ([]segInfo, error) {
	seqs, err := codec.ListFiles(dir, segPrefix, segSuffix)
	segs := make([]segInfo, len(seqs))
	for i, seq := range seqs {
		segs[i] = segInfo{name: segName(seq), firstSeq: seq}
	}
	return segs, err
}

func segName(firstSeq uint64) string {
	return codec.FileName(segPrefix, firstSeq, segSuffix)
}

// rotateLocked closes the active segment (if any) and opens a new one whose
// first sequence is nextSeq. A failed open leaves no active segment and no
// file behind, so the next Append tries again. Caller holds mu (or is Open,
// pre-publication).
func (w *Writer) rotateLocked() error {
	if w.f != nil {
		if w.dirty > 0 && w.opts.Policy != FsyncOff {
			if err := w.syncLocked(); err != nil {
				return err
			}
		}
		if err := w.f.Close(); err != nil {
			return err
		}
		w.f = nil
	}
	path := filepath.Join(w.opts.Dir, segName(w.nextSeq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write([]byte(segMagic))
	// The segment's records are synced through f; its directory entry is
	// durable only once the directory is synced too.
	if err == nil && w.opts.Policy != FsyncOff {
		err = codec.SyncDir(w.opts.Dir)
	}
	if err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	w.segments++
	w.f = f
	w.segStart = w.nextSeq
	w.segSize = int64(len(segMagic))
	return nil
}

// Append frames, writes, and (per policy) syncs one record, assigning and
// returning its sequence. A full or missing active segment is replaced
// before the sequence is assigned, so a failed rotation writes nothing and
// the next Append tries it again. Fires the wal.append failpoint before the
// write and wal.fsync before each sync so the crash harness can kill the
// process at either boundary.
func (w *Writer) Append(rec *Record) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrClosed
	}
	if len(rec.Rows) > 0 && len(rec.Rows[0]) == 0 {
		// decodePayload bounds rows by their cells' bytes; a row of no
		// columns has none, and replay would read the record as a tear.
		return 0, errors.New("wal: cannot log rows of no columns")
	}
	if err := w.syncFailure(); err != nil {
		// A background fsync has failed: acknowledged-but-unsynced bytes may
		// already be lost, so acknowledging more writes would silently degrade
		// FsyncInterval to FsyncOff on a sick disk.
		return 0, fmt.Errorf("wal: background fsync failed, refusing append: %w", err)
	}
	if w.f == nil || w.segSize >= w.opts.SegmentBytes {
		if err := w.rotateLocked(); err != nil {
			return 0, err
		}
	}
	// The sequence is burned before the failpoint fires: an injected panic or
	// kill between assignment and write leaves a gap, never a reused sequence
	// that a later abort marker could void by mistake.
	rec.Seq = w.nextSeq
	w.nextSeq++
	exec.Testing.Fire("wal.append")
	if err := w.writeLocked(rec); err != nil {
		return 0, err
	}
	w.appends++
	if w.opts.Policy == FsyncAlways {
		if err := w.syncLocked(); err != nil {
			return 0, err
		}
	}
	return rec.Seq, nil
}

// AppendAbort writes an abort marker for seq: the in-memory apply of that
// record failed after the log write, so replay must skip it. The marker is
// synced under every policy except off — losing it would resurrect rows the
// original process never acknowledged.
func (w *Writer) AppendAbort(seq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	rec := &Record{Seq: seq, Abort: true}
	if err := w.writeLocked(rec); err != nil {
		return err
	}
	w.appends++
	if w.opts.Policy != FsyncOff {
		return w.syncLocked()
	}
	return nil
}

func (w *Writer) writeLocked(rec *Record) error {
	payload := encodePayload(rec)
	frame, err := codec.AppendFrame(make([]byte, 0, frameHdr+len(payload)), payload, maxFrame)
	if err != nil {
		return fmt.Errorf("wal: record: %w", err)
	}
	if _, err := w.f.Write(frame); err != nil {
		return err
	}
	w.segSize += int64(len(frame))
	w.bytes += uint64(len(frame))
	w.dirty += uint64(len(frame))
	return nil
}

func (w *Writer) syncLocked() error {
	exec.Testing.Fire("wal.fsync")
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.fsyncs++
	w.dirty = 0
	w.lastSync = time.Now()
	return nil
}

// Sync forces an fsync of the active segment regardless of policy.
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if w.dirty == 0 {
		return nil
	}
	return w.syncLocked()
}

// syncFailure returns the sticky background-fsync error (nil while healthy).
func (w *Writer) syncFailure() error {
	w.flushErrMu.Lock()
	defer w.flushErrMu.Unlock()
	return w.flushErr
}

func (w *Writer) flushLoop() {
	defer close(w.flushDone)
	t := time.NewTicker(w.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-w.flushStop:
			return
		case <-t.C:
			w.mu.Lock()
			var err error
			if !w.closed && w.dirty > 0 {
				err = w.syncLocked()
			}
			w.mu.Unlock()
			if err != nil {
				w.flushErrMu.Lock()
				w.flushErr = err
				w.flushErrMu.Unlock()
			}
		}
	}
}

// Close syncs (unless policy off) and closes the active segment. Idempotent.
func (w *Writer) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	var err error
	if w.f != nil {
		if w.dirty > 0 && w.opts.Policy != FsyncOff {
			err = w.syncLocked()
		}
		if cerr := w.f.Close(); err == nil {
			err = cerr
		}
		w.f = nil
	}
	stop := w.flushStop
	w.mu.Unlock()
	if stop != nil {
		close(stop)
		<-w.flushDone
	}
	w.flushErrMu.Lock()
	if err == nil {
		err = w.flushErr
	}
	w.flushErrMu.Unlock()
	return err
}

// Stats returns a snapshot of writer counters. It does no I/O.
func (w *Writer) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return Stats{
		Appends:    w.appends,
		Fsyncs:     w.fsyncs,
		Bytes:      w.bytes,
		Segments:   w.segments,
		NextSeq:    w.nextSeq,
		LastSync:   w.lastSync,
		DirtyBytes: w.dirty,
		SyncErr:    w.syncFailure(),
	}
}

// RemoveObsolete deletes segments made redundant by a snapshot at uptoSeq:
// a segment is removable when the NEXT segment starts at or before uptoSeq+1
// (every record in it is ≤ uptoSeq). The active segment is never removed.
// Returns the number of segments deleted.
func (w *Writer) RemoveObsolete(uptoSeq uint64) (int, error) {
	w.mu.Lock()
	active := w.segStart
	w.mu.Unlock()
	segs, err := listSegments(w.opts.Dir)
	if err != nil {
		return 0, err
	}
	removed := 0
	defer func() {
		w.mu.Lock()
		w.segments -= removed
		w.mu.Unlock()
	}()
	for i := 0; i+1 < len(segs); i++ {
		if segs[i].firstSeq == active || segs[i+1].firstSeq > uptoSeq+1 {
			break
		}
		if err := os.Remove(filepath.Join(w.opts.Dir, segs[i].name)); err != nil {
			return removed, err
		}
		removed++
	}
	return removed, nil
}

// tornError marks the point where a segment's tail stopped parsing; scan
// callers treat it as "stop here", not failure.
type tornError struct {
	off int64
	why string
}

func (e *tornError) Error() string {
	return fmt.Sprintf("wal: torn tail at offset %d: %s", e.off, e.why)
}

// scanSegment decodes each record of the segment at path and passes it to fn.
// A bad magic, a frame codec.ReadFrame rejects or a payload that does not
// decode returns a *tornError carrying the bad frame's offset; read errors
// and fn errors pass through unchanged.
func scanSegment(path string, fn func(*Record) error) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		return &tornError{off: 0, why: "bad segment magic"}
	}
	for off := len(segMagic); off < len(data); {
		payload, n, err := codec.ReadFrame(data[off:], maxFrame)
		var rec *Record
		if err == nil {
			rec, err = decodePayload(payload)
		}
		if err != nil {
			return &tornError{off: int64(off), why: err.Error()}
		}
		if err := fn(rec); err != nil {
			return err
		}
		off += n
	}
	return nil
}

// ReplayStats summarizes a Replay pass.
type ReplayStats struct {
	// Records is the count of committed append records delivered to fn.
	Records int
	// Aborted counts records skipped because an abort marker voided them.
	Aborted int
	// TruncatedTails counts segments whose tail failed CRC/framing and was
	// truncated (later segments, if any, are removed wholesale).
	TruncatedTails int
	// MaxSeq is the highest sequence observed, committed or not.
	MaxSeq uint64
}

// Replay scans the log in dir and delivers every committed append record with
// sequence > after to fn, in sequence order. Torn or corrupt tails are
// truncated on disk (and segments past the tear removed) rather than failing:
// a tear means the process died mid-write, so nothing after it was ever
// acknowledged. An error from fn aborts the replay and is returned.
//
// Replay runs two passes: the first collects abort markers and repairs tears
// (an abort marker can follow its target, even in a later segment), the
// second delivers committed records.
func Replay(dir string, after uint64, fn func(*Record) error) (ReplayStats, error) {
	var st ReplayStats
	segs, err := listSegments(dir)
	if err != nil {
		return st, err
	}

	// Pass 1: find the tear (if any), collect abort markers up to it.
	aborted := map[uint64]bool{}
	tearSeg := -1
	var tear *tornError
	for i, s := range segs {
		err := scanSegment(filepath.Join(dir, s.name), func(rec *Record) error {
			st.MaxSeq = max(st.MaxSeq, rec.Seq)
			if rec.Abort {
				aborted[rec.Seq] = true
			}
			return nil
		})
		if errors.As(err, &tear) {
			tearSeg = i
			break
		}
		if err != nil {
			return st, err
		}
	}

	// Repair: truncate the torn segment at the tear and drop later segments.
	if tearSeg >= 0 {
		st.TruncatedTails++
		kept := tearSeg + 1
		if tear.off <= int64(len(segMagic)) {
			kept = tearSeg // nothing valid in the torn segment: remove it too
		} else if err := os.Truncate(filepath.Join(dir, segs[tearSeg].name), tear.off); err != nil {
			return st, err
		}
		for _, s := range segs[kept:] {
			if err := os.Remove(filepath.Join(dir, s.name)); err != nil {
				return st, err
			}
		}
		segs = segs[:kept]
	}

	// Pass 2: deliver committed records in order.
	for _, s := range segs {
		err := scanSegment(filepath.Join(dir, s.name), func(rec *Record) error {
			if rec.Abort || rec.Seq <= after || aborted[rec.Seq] {
				if !rec.Abort && aborted[rec.Seq] && rec.Seq > after {
					st.Aborted++
				}
				return nil
			}
			exec.Testing.Fire("recover.replay")
			if err := fn(rec); err != nil {
				return err
			}
			st.Records++
			return nil
		})
		if err != nil {
			return st, err
		}
	}
	return st, nil
}
