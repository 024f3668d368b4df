package store

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"lakeharbor/internal/dfs"
	"lakeharbor/internal/lake"
)

// Frame payload types. Record frames carry one ingested record; catalog
// frames carry one catalog mutation (create/drop file), so the versioned
// catalog's changes between checkpoints replay alongside the data.
const (
	frameRecord  byte = 0
	frameCatalog byte = 1
)

const (
	catalogOpCreate byte = 0
	catalogOpDrop   byte = 1
)

// walFlushThreshold is the pending-buffer size above which Append flushes
// to the underlying writer on its own.
const walFlushThreshold = 64 << 10

// WAL is a write-ahead log for the raw ingest stream and catalog mutations:
// every record appended to the lake between snapshots is framed and
// checksummed here, so a crash loses at most the torn tail of the last
// frame.
//
// Frame layout: uint32 CRC-32 of payload, uint32 payload length, payload.
// Payload: a type byte, then for record frames string file, string
// partition key, string record key, bytes record data; for catalog frames
// an op byte, string file name, and for creates the file's kind,
// partitioner, and partition count.
//
// Frames are built whole in memory and enter the pending buffer atomically:
// an I/O error can tear the frame that straddles the failed write — which
// replay tolerates as a torn tail — but can never interleave or corrupt the
// frames after it, because unwritten bytes stay pending and are resumed on
// the next flush.
type WAL struct {
	mu     sync.Mutex
	f      *os.File // nil for test WALs over a plain writer
	w      io.Writer
	closed bool
	// pending[off:] is framed data not yet accepted by w.
	pending []byte
	off     int
}

// OpenWAL opens (or creates) a log at path, appending.
func OpenWAL(path string) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &WAL{f: f, w: f}, nil
}

// newTestWAL wraps a plain writer, for fault-injection tests.
func newTestWAL(w io.Writer) *WAL { return &WAL{w: w} }

// Append logs one ingested record.
func (l *WAL) Append(file string, partKey lake.Key, rec lake.Record) error {
	var payload bytes.Buffer
	payload.WriteByte(frameRecord)
	writeString(&payload, file)
	writeString(&payload, partKey)
	writeString(&payload, rec.Key)
	writeBytes(&payload, rec.Data)
	return l.appendFrame(payload.Bytes())
}

// CatalogOp is one catalog mutation to log: a file create (with its shape)
// or a drop.
type CatalogOp struct {
	Drop        bool
	Name        string
	Kind        dfs.Kind
	Partitions  int
	Partitioner lake.Partitioner // creates only
}

// AppendCatalogOp logs one catalog mutation.
func (l *WAL) AppendCatalogOp(op CatalogOp) error {
	var payload bytes.Buffer
	payload.WriteByte(frameCatalog)
	if op.Drop {
		payload.WriteByte(catalogOpDrop)
		writeString(&payload, op.Name)
		return l.appendFrame(payload.Bytes())
	}
	payload.WriteByte(catalogOpCreate)
	writeString(&payload, op.Name)
	kind := kindHeap
	if op.Kind == dfs.Btree {
		kind = kindBtree
	}
	payload.WriteByte(kind)
	if err := writePartitioner(&payload, op.Partitioner); err != nil {
		return err
	}
	writeU32(&payload, uint32(op.Partitions))
	return l.appendFrame(payload.Bytes())
}

// appendFrame checksums and frames a payload, adds the whole frame to the
// pending buffer in one step, and flushes once enough has accumulated.
func (l *WAL) appendFrame(payload []byte) error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(payload)))

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("store: WAL is closed")
	}
	l.pending = append(l.pending, hdr[:]...)
	l.pending = append(l.pending, payload...)
	if len(l.pending)-l.off >= walFlushThreshold {
		return l.flushLocked()
	}
	return nil
}

// flushLocked writes the pending buffer. On a short or failed write the
// unwritten tail stays pending for the next attempt, so frame boundaries
// survive writer faults.
func (l *WAL) flushLocked() error {
	for l.off < len(l.pending) {
		n, err := l.w.Write(l.pending[l.off:])
		l.off += n
		if err != nil {
			return err
		}
	}
	l.pending = l.pending[:0]
	l.off = 0
	return nil
}

// Sync flushes pending frames and fsyncs the file.
func (l *WAL) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("store: WAL is closed")
	}
	if err := l.flushLocked(); err != nil {
		return err
	}
	if l.f == nil {
		return nil
	}
	return l.f.Sync()
}

// Truncate discards the log's contents — pending and on disk — and fsyncs.
// Callers use it right after a checkpoint lands: everything in the log is
// now covered by the snapshot.
func (l *WAL) Truncate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("store: WAL is closed")
	}
	l.pending = l.pending[:0]
	l.off = 0
	if l.f == nil {
		return nil
	}
	if err := l.f.Truncate(0); err != nil {
		return err
	}
	return l.f.Sync()
}

// Close flushes and closes the log.
func (l *WAL) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	if err := l.flushLocked(); err != nil {
		return err
	}
	l.closed = true
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// ReplayWAL re-applies every intact frame of the log to the cluster:
// records are re-ingested through each file's partitioner exactly as the
// original ingest did, and catalog mutations are re-executed. It returns
// the number of records applied. A torn or corrupted tail ends the replay
// without error — that is the expected crash shape — but a corrupted frame
// *followed by* more data is reported.
func ReplayWAL(ctx context.Context, path string, cluster *dfs.Cluster) (int, error) {
	return replayWAL(ctx, path, cluster, func(string) {})
}

// replayWAL is ReplayWAL calling onCatalog with the file name of every
// catalog op right after the op is applied.
func replayWAL(ctx context.Context, path string, cluster *dfs.Cluster, onCatalog func(name string)) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	br := bufio.NewReader(f)

	applied := 0
	for {
		stored, err := readU32(br)
		if errors.Is(err, io.EOF) {
			return applied, nil
		}
		if err != nil {
			return applied, walTail(br, applied, err)
		}
		payload, err := readBytes(br)
		if err != nil {
			return applied, walTail(br, applied, err)
		}
		if crc32.ChecksumIEEE(payload) != stored {
			return applied, walTail(br, applied, errors.New("frame checksum mismatch"))
		}
		n, err := replayFrame(ctx, payload, cluster, onCatalog)
		if err != nil {
			return applied, err
		}
		applied += n
	}
}

// replayFrame applies one verified frame, returning how many records it
// carried (0 for catalog frames).
func replayFrame(ctx context.Context, payload []byte, cluster *dfs.Cluster, onCatalog func(string)) (int, error) {
	pr := bytes.NewReader(payload)
	typ, err := readByte(pr)
	if err != nil {
		return 0, err
	}
	switch typ {
	case frameRecord:
		file, err := readString(pr)
		if err != nil {
			return 0, err
		}
		partKey, err := readString(pr)
		if err != nil {
			return 0, err
		}
		key, err := readString(pr)
		if err != nil {
			return 0, err
		}
		data, err := readBytes(pr)
		if err != nil {
			return 0, err
		}
		target, err := cluster.File(file)
		if err != nil {
			return 0, fmt.Errorf("store: replay: %w", err)
		}
		if err := dfs.AppendRouted(ctx, target, partKey, lake.Record{Key: key, Data: data}); err != nil {
			return 0, err
		}
		return 1, nil
	case frameCatalog:
		op, err := readByte(pr)
		if err != nil {
			return 0, err
		}
		name, err := readString(pr)
		if err != nil {
			return 0, err
		}
		defer onCatalog(name)
		switch op {
		case catalogOpDrop:
			cluster.DropFile(name)
			return 0, nil
		case catalogOpCreate:
			kindB, err := readByte(pr)
			if err != nil {
				return 0, err
			}
			kind := dfs.Heap
			if kindB == kindBtree {
				kind = dfs.Btree
			}
			partitioner, err := readPartitioner(pr)
			if err != nil {
				return 0, err
			}
			nParts, err := readU32(pr)
			if err != nil {
				return 0, err
			}
			if nParts > maxSaneParts {
				return 0, fmt.Errorf("store: replay: absurd partition count %d", nParts)
			}
			if _, err := cluster.CreateFile(name, kind, int(nParts), partitioner); err != nil {
				return 0, fmt.Errorf("store: replay: %w", err)
			}
			return 0, nil
		default:
			return 0, fmt.Errorf("store: replay: unknown catalog op %d", op)
		}
	default:
		return 0, fmt.Errorf("store: replay: unknown frame type %d", typ)
	}
}

// walTail distinguishes a torn tail (acceptable: last write interrupted)
// from corruption in the middle of the log (an error). If no more bytes
// follow the failure point, it is a tail.
func walTail(br *bufio.Reader, applied int, cause error) error {
	if _, err := br.ReadByte(); errors.Is(err, io.EOF) {
		return nil // torn tail: everything before it was applied
	}
	return fmt.Errorf("store: corrupted WAL frame after %d records: %w", applied, cause)
}
