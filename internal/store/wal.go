package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/xmltree"
)

// The write-ahead log makes store mutations durable between snapshots:
// every Add/Replace/Remove appends one self-checking record before it
// touches the in-memory store, so a crash at any moment loses at most the
// mutation being written — never a previously acknowledged one (under
// SyncAlways) and never the store's integrity.
//
// File layout (integers unsigned varints unless noted):
//
//	header  magic "XWL1", generation, crc32c(generation varint) u32-LE
//	record  payloadLen u32-LE, crc32c(payload) u32-LE, payload
//	payload op byte (1 add | 2 replace | 3 remove), seq, id,
//	        and for add/replace: docLen, document snapshot ("XPT1")
//
// The fixed-width length/CRC pair in front of every payload makes torn
// tails self-evident on replay: a record whose frame is incomplete or
// whose checksum fails marks the end of the durable prefix. Replay
// truncates there — a torn tail is the expected signature of a crash
// mid-append, not corruption to reject the corpus over.
const walMagic = "XWL1"

const (
	walOpAdd     byte = 1
	walOpReplace byte = 2
	walOpRemove  byte = 3
)

// maxWALPayload bounds one record's declared payload: a document snapshot
// at its cap, plus an ID and framing slop.
const maxWALPayload = maxDocSnapLen + maxIDLen + 64

var (
	mWALAppends   = metrics.Default().Counter("store.wal.appends")
	mWALAppendNs  = metrics.Default().Histogram("store.wal.append_ns")
	mWALBytes     = metrics.Default().Counter("store.wal.bytes")
	mWALFsyncNs   = metrics.Default().Histogram("store.wal.fsync_ns")
	mWALReplayed  = metrics.Default().Counter("store.wal.replayed_records")
	mWALTruncated = metrics.Default().Counter("store.wal.truncated_bytes")
	mWALRotations = metrics.Default().Counter("store.wal.rotations")
)

// walRecord is one decoded mutation.
type walRecord struct {
	op  byte
	seq uint64
	id  string
	doc []byte // XPT1 snapshot bytes for add/replace, nil for remove
}

// encodeWALHeader appends the file header for a segment of the given
// generation.
func encodeWALHeader(b *bytes.Buffer, generation uint64) {
	b.WriteString(walMagic)
	var gv bytes.Buffer
	putUvarint(&gv, generation)
	b.Write(gv.Bytes())
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], crc32.Checksum(gv.Bytes(), crcTable))
	b.Write(tmp[:])
}

// encodeWALRecord appends one framed record.
func encodeWALRecord(b *bytes.Buffer, rec walRecord) {
	var payload bytes.Buffer
	payload.WriteByte(rec.op)
	putUvarint(&payload, rec.seq)
	putString(&payload, rec.id)
	if rec.op != walOpRemove {
		putUvarint(&payload, uint64(len(rec.doc)))
		payload.Write(rec.doc)
	}
	var tmp [8]byte
	binary.LittleEndian.PutUint32(tmp[:4], uint32(payload.Len()))
	binary.LittleEndian.PutUint32(tmp[4:], crc32.Checksum(payload.Bytes(), crcTable))
	b.Write(tmp[:])
	b.Write(payload.Bytes())
}

// walWriter appends records to one segment file.
type walWriter struct {
	f    vfile
	buf  bytes.Buffer
	sync SyncPolicy
}

// createWAL creates a fresh segment with a durable header.
func createWAL(fs fsys, path string, generation uint64, sync SyncPolicy) (*walWriter, error) {
	f, err := fs.Create(path)
	if err != nil {
		return nil, err
	}
	w := &walWriter{f: f, sync: sync}
	w.buf.Reset()
	encodeWALHeader(&w.buf, generation)
	if _, err := f.Write(w.buf.Bytes()); err != nil {
		f.Close()
		return nil, err
	}
	// The header is synced unconditionally: replay must always be able to
	// attribute the segment to its generation.
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// append frames and writes one record, then syncs per policy. The frame
// header and payload go out in two writes with a failpoint between them:
// under -tags faultinject the chaos suite arms store.wal.append to crash
// there, leaving a genuinely torn record for the recovery tests.
func (w *walWriter) append(rec walRecord) error {
	t0 := trace.Now()
	w.buf.Reset()
	encodeWALRecord(&w.buf, rec)
	frame := w.buf.Bytes()
	if _, err := w.f.Write(frame[:8]); err != nil {
		return err
	}
	faultinject.Hit("store.wal.append")
	if _, err := w.f.Write(frame[8:]); err != nil {
		return err
	}
	if w.sync == SyncAlways {
		ts := trace.Now()
		if err := w.f.Sync(); err != nil {
			return err
		}
		mWALFsyncNs.Observe(trace.Now() - ts)
	}
	mWALAppends.Add(1)
	mWALBytes.Add(int64(len(frame)))
	mWALAppendNs.Observe(trace.Now() - t0)
	return nil
}

// close syncs (regardless of policy — a closing segment must be complete
// on disk) and closes the file.
func (w *walWriter) close() error {
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// replayWAL decodes a segment stream, invoking apply for every intact
// record. It returns the segment's generation, the byte offset of the end
// of the last intact record (the durable prefix — callers truncate the
// file there), and the highest sequence number seen.
//
// A torn tail — incomplete frame, short payload, checksum mismatch — ends
// replay without error: that is the signature of a crash mid-append, and
// the durable prefix before it is intact by construction. Only a
// malformed header or an undecodable CRC-valid payload is a real error.
func replayWAL(r io.Reader, apply func(walRecord) error) (generation uint64, goodOffset int64, lastSeq uint64, err error) {
	cr := &countingReader{r: r}
	br := bufio.NewReader(cr)
	consumed := func() int64 { return cr.n - int64(br.Buffered()) }

	magic := make([]byte, len(walMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return 0, 0, 0, fmt.Errorf("store: wal: header: %w", err)
	}
	if string(magic) != walMagic {
		return 0, 0, 0, fmt.Errorf("store: wal: bad magic %q", magic)
	}
	hc := &crcReader{br: br}
	generation, err = binary.ReadUvarint(hc)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("store: wal: generation: %w", err)
	}
	if err := hc.expectCRC("wal header"); err != nil {
		return 0, 0, 0, err
	}
	goodOffset = consumed()

	var frame [8]byte
	payload := make([]byte, 0, 4096)
	for {
		if _, err := io.ReadFull(br, frame[:]); err != nil {
			// EOF exactly at a record boundary is a clean end; anything
			// partial is a torn tail. Either way the durable prefix ends here.
			return generation, goodOffset, lastSeq, nil
		}
		payloadLen := binary.LittleEndian.Uint32(frame[:4])
		wantCRC := binary.LittleEndian.Uint32(frame[4:])
		if uint64(payloadLen) > maxWALPayload {
			// An absurd length claim means the frame header itself is
			// garbage — the durable prefix ended at the previous record.
			mWALTruncated.Add(8)
			return generation, goodOffset, lastSeq, nil
		}
		if cap(payload) < int(payloadLen) {
			payload = make([]byte, payloadLen)
		}
		payload = payload[:payloadLen]
		if _, err := io.ReadFull(br, payload); err != nil {
			return generation, goodOffset, lastSeq, nil
		}
		if crc32.Checksum(payload, crcTable) != wantCRC {
			return generation, goodOffset, lastSeq, nil
		}
		rec, err := decodeWALPayload(payload)
		if err != nil {
			// CRC-valid but undecodable: this was written that way, which a
			// torn write cannot produce. Surface it.
			return generation, goodOffset, lastSeq, fmt.Errorf("store: wal: record at offset %d: %w", goodOffset, err)
		}
		if err := apply(rec); err != nil {
			return generation, goodOffset, lastSeq, err
		}
		lastSeq = rec.seq
		goodOffset = consumed()
		mWALReplayed.Add(1)
	}
}

// decodeWALPayload parses one checksummed payload.
func decodeWALPayload(p []byte) (walRecord, error) {
	var rec walRecord
	if len(p) == 0 {
		return rec, fmt.Errorf("empty payload")
	}
	rec.op = p[0]
	b := bytes.NewReader(p[1:])
	var err error
	if rec.seq, err = binary.ReadUvarint(b); err != nil {
		return rec, fmt.Errorf("sequence: %w", err)
	}
	idLen, err := binary.ReadUvarint(b)
	if err != nil {
		return rec, fmt.Errorf("id length: %w", err)
	}
	if idLen > maxIDLen {
		return rec, fmt.Errorf("implausible id length %d", idLen)
	}
	id := make([]byte, idLen)
	if _, err := io.ReadFull(b, id); err != nil {
		return rec, fmt.Errorf("id: %w", err)
	}
	rec.id = string(id)
	switch rec.op {
	case walOpAdd, walOpReplace:
		docLen, err := binary.ReadUvarint(b)
		if err != nil {
			return rec, fmt.Errorf("doc length: %w", err)
		}
		if docLen > maxDocSnapLen {
			return rec, fmt.Errorf("implausible doc length %d", docLen)
		}
		doc := make([]byte, docLen)
		if _, err := io.ReadFull(b, doc); err != nil {
			return rec, fmt.Errorf("doc: %w", err)
		}
		rec.doc = doc
	case walOpRemove:
	default:
		return rec, fmt.Errorf("unknown op %d", rec.op)
	}
	if b.Len() != 0 {
		return rec, fmt.Errorf("%d trailing payload bytes", b.Len())
	}
	return rec, nil
}

// applyWALRecord replays one mutation into the store (upsert semantics for
// both add and replace, so replay after compaction is idempotent).
func applyWALRecord(s *Store, rec walRecord) error {
	switch rec.op {
	case walOpAdd, walOpReplace:
		doc, _, err := xmltree.LoadSnapshotBytes(rec.doc, xmltree.DefaultLimits())
		if err != nil {
			return fmt.Errorf("store: wal: %q: %w", rec.id, err)
		}
		_, err = s.Replace(rec.id, doc)
		return err
	case walOpRemove:
		s.Remove(rec.id)
		return nil
	}
	return fmt.Errorf("store: wal: unknown op %d", rec.op)
}
