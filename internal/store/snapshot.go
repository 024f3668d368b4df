// Package store implements the paper's §V-C research direction, a storage
// layer for LakeHarbor workloads: durable on-disk snapshots of a cluster's
// files and a write-ahead log for the raw ingest stream between snapshots.
//
// The snapshot format is a single self-describing stream, format v3
// ("LAKEHB3"); earlier versions are rejected as unsupported:
//
//	magic "LAKEHB3\n"
//	uint64 catalog version
//	uint32 file count
//	per file (sorted by name):
//	  string  name
//	  byte    kind            (0 = heap, 1 = btree)
//	  byte    partitioner     (0 = hash, 1 = range)
//	  if range: uint32 bound count, then each bound as a string
//	  uint32  partition count
//	  per partition:
//	    uint64 record count
//	    per record: string key, bytes data
//	uint32 structure registry entry count
//	per entry (sorted by name):
//	  string  name
//	  string  base
//	  byte    kind            (0 = local, 1 = global)
//	  byte    state           (0 = ready, 1 = evicted)
//	  uint64  modeled size bytes
//	  uint64  rebuild cost    (math.Float64bits)
//	  uint64  completed builds
//	uint32 script count
//	per script (sorted by name):
//	  string  name
//	  string  source
//	uint32 script binding count
//	per binding (sorted by structure):
//	  string  structure
//	  string  base
//	  string  kind            ("local", "global", or "")
//	  uint32  partitions
//	  string  script
//	  string  partition-key function
//	  string  index-keys function
//	uint32 CRC-32 (IEEE) of everything after the magic
//
// Scripts travel as source text — recovery re-compiles them, so a snapshot
// is portable across interpreter versions as long as the language stays
// backward compatible. Strings and byte slices are uint32-length-prefixed;
// integers are little-endian. The trailing checksum makes torn or
// corrupted snapshots detectable at restore time; restore verifies it
// BEFORE any record reaches the live cluster, so a corrupted snapshot never
// pollutes the catalog.
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
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"

	"lakeharbor/internal/dfs"
	"lakeharbor/internal/indexer"
	"lakeharbor/internal/lake"
	"lakeharbor/internal/script"
)

// snapshotMagic opens every snapshot; a "LAKEHB" magic with another
// version digit is a snapshot this reader does not support.
const snapshotMagic = "LAKEHB3\n"

const (
	kindHeap  byte = 0
	kindBtree byte = 1

	partHash  byte = 0
	partRange byte = 1

	structLocal  byte = 0
	structGlobal byte = 1

	structReady   byte = 0
	structEvicted byte = 1
)

// maxSaneLen guards length prefixes when reading untrusted snapshots.
const maxSaneLen = 1 << 30

// maxSaneParts bounds a restored file's partition count: a corrupt uint32
// must not drive CreateFile into allocating an absurd number of partitions.
const maxSaneParts = 1 << 20

// maxSaneCount bounds every section's entry count.
const maxSaneCount = 1 << 24

// SnapshotMeta is the metadata section: the catalog version the snapshot
// captured, the structure-registry entries a lifecycle manager needs to
// recover built structures into their residency states without rebuilding,
// and the scripts and bindings scripted structures need. Checkpoint
// assembles it; Recover applies it.
type SnapshotMeta struct {
	// CatalogVersion is the cluster's monotonic catalog version at
	// checkpoint time.
	CatalogVersion uint64
	// Structures describes every persisted managed structure. The
	// structures' contents travel as ordinary catalog files; these entries
	// carry the lifecycle state (ready/evicted), modeled size, and rebuild
	// cost that indexer.Manager.Recover re-installs on boot.
	Structures []indexer.PersistEntry
	// Scripts carries every registered script as source text; recovery
	// re-Puts (and so re-compiles) them into a fresh registry.
	Scripts []script.PersistEntry
	// ScriptSpecs carries the script→structure bindings; recovery re-Binds
	// them after the scripts so scripted structures re-adopt without a
	// rebuild.
	ScriptSpecs []script.SpecBinding
}

// WriteSnapshot serializes the cluster's files plus the given metadata
// (catalog version, structure registry, scripts, and script bindings) to w
// in format v3. A nil meta writes empty metadata sections.
func WriteSnapshot(ctx context.Context, cluster *dfs.Cluster, meta *SnapshotMeta, w io.Writer) error {
	if meta == nil {
		meta = &SnapshotMeta{}
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return err
	}
	sum := crc32.NewIEEE()
	out := io.MultiWriter(bw, sum)

	if err := writeU64(out, meta.CatalogVersion); err != nil {
		return err
	}
	names := cluster.FileNames()
	sort.Strings(names)
	entries := append([]indexer.PersistEntry(nil), meta.Structures...)
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	scripts := append([]script.PersistEntry(nil), meta.Scripts...)
	sort.Slice(scripts, func(i, j int) bool { return scripts[i].Name < scripts[j].Name })
	bindings := append([]script.SpecBinding(nil), meta.ScriptSpecs...)
	sort.Slice(bindings, func(i, j int) bool { return bindings[i].Structure < bindings[j].Structure })
	if err := writeSection(out, "file", names, func(w io.Writer, name string) error {
		return snapshotFile(ctx, cluster, name, w)
	}); err != nil {
		return err
	}
	if err := writeSection(out, "structure", entries, writeStructureEntry); err != nil {
		return err
	}
	if err := writeSection(out, "script", scripts, writeScriptEntry); err != nil {
		return err
	}
	if err := writeSection(out, "binding", bindings, writeScriptBinding); err != nil {
		return err
	}
	if err := writeU32(bw, sum.Sum32()); err != nil {
		return err
	}
	return bw.Flush()
}

// CheckpointToPath writes a v3 snapshot (files + metadata) to path,
// atomically: the stream goes to a temp file that is fsynced, renamed into
// place, and made durable by fsyncing the parent directory — without the
// directory fsync a crash shortly after the rename can silently lose the
// whole snapshot. The temp file is removed on every error path.
func CheckpointToPath(ctx context.Context, cluster *dfs.Cluster, meta *SnapshotMeta, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := WriteSnapshot(ctx, cluster, meta, f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
// Filesystems that cannot fsync directories (EINVAL/ENOTSUP) are tolerated:
// on those there is nothing stronger available.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return err
	}
	return nil
}

func snapshotFile(ctx context.Context, cluster *dfs.Cluster, name string, w io.Writer) error {
	f, err := cluster.File(name)
	if err != nil {
		return err
	}
	if err := writeString(w, name); err != nil {
		return err
	}
	kind := kindHeap
	if k, ok := f.(interface{ Kind() dfs.Kind }); ok && k.Kind() == dfs.Btree {
		kind = kindBtree
	}
	if err := writeByte(w, kind); err != nil {
		return err
	}
	if err := writePartitioner(w, f.Partitioner()); err != nil {
		return err
	}
	if err := writeU32(w, uint32(f.NumPartitions())); err != nil {
		return err
	}
	for p := 0; p < f.NumPartitions(); p++ {
		var recs []lake.Record
		err := f.Scan(ctx, p, func(r lake.Record) error {
			recs = append(recs, r)
			return nil
		})
		if err != nil {
			return err
		}
		if err := writeU64(w, uint64(len(recs))); err != nil {
			return err
		}
		for _, r := range recs {
			if err := writeString(w, r.Key); err != nil {
				return err
			}
			if err := writeBytes(w, r.Data); err != nil {
				return err
			}
		}
	}
	return nil
}

func writePartitioner(w io.Writer, p lake.Partitioner) error {
	switch p := p.(type) {
	case lake.HashPartitioner:
		return writeByte(w, partHash)
	case lake.RangePartitioner:
		if err := writeByte(w, partRange); err != nil {
			return err
		}
		if err := writeU32(w, uint32(len(p.Bounds))); err != nil {
			return err
		}
		for _, b := range p.Bounds {
			if err := writeString(w, b); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("unsupported partitioner %q", p.Name())
	}
}

func readPartitioner(r io.Reader) (lake.Partitioner, error) {
	tag, err := readByte(r)
	if err != nil {
		return nil, err
	}
	switch tag {
	case partHash:
		return lake.HashPartitioner{}, nil
	case partRange:
		n, err := readU32(r)
		if err != nil {
			return nil, err
		}
		if n > maxSaneParts {
			return nil, fmt.Errorf("absurd bound count %d", n)
		}
		bounds := make([]lake.Key, n)
		for i := range bounds {
			bounds[i], err = readString(r)
			if err != nil {
				return nil, err
			}
		}
		return lake.RangePartitioner{Bounds: bounds}, nil
	default:
		return nil, fmt.Errorf("unknown partitioner tag %d", tag)
	}
}

// writeSection writes one count-prefixed section: a uint32 count, then each
// entry. readSection is its inverse.
func writeSection[T any](w io.Writer, what string, entries []T, write func(io.Writer, T) error) error {
	if err := writeU32(w, uint32(len(entries))); err != nil {
		return err
	}
	for i, e := range entries {
		if err := write(w, e); err != nil {
			return fmt.Errorf("store: snapshot %s %d: %w", what, i, err)
		}
	}
	return nil
}

// readSection reads one count-prefixed section, bounding the count by
// maxSaneCount before reading any entry.
func readSection[T any](r io.Reader, what string, read func(io.Reader) (T, error)) ([]T, error) {
	n, err := readU32(r)
	if err != nil {
		return nil, fmt.Errorf("store: reading %s count: %w", what, err)
	}
	if n > maxSaneCount {
		return nil, fmt.Errorf("store: absurd %s count %d", what, n)
	}
	var out []T
	for i := uint32(0); i < n; i++ {
		e, err := read(r)
		if err != nil {
			return nil, fmt.Errorf("store: restore %s %d: %w", what, i, err)
		}
		out = append(out, e)
	}
	return out, nil
}

func writeScriptEntry(w io.Writer, e script.PersistEntry) error {
	if err := writeString(w, e.Name); err != nil {
		return err
	}
	return writeString(w, e.Source)
}

func readScriptEntry(r io.Reader) (e script.PersistEntry, err error) {
	if e.Name, err = readString(r); err != nil {
		return e, err
	}
	e.Source, err = readString(r)
	return e, err
}

func writeStructureEntry(w io.Writer, e indexer.PersistEntry) error {
	if err := writeString(w, e.Name); err != nil {
		return err
	}
	if err := writeString(w, e.Base); err != nil {
		return err
	}
	kind := structLocal
	if e.Kind == indexer.Global {
		kind = structGlobal
	}
	if err := writeByte(w, kind); err != nil {
		return err
	}
	state := structReady
	switch e.State {
	case indexer.StateReady:
	case indexer.StateEvicted:
		state = structEvicted
	default:
		return fmt.Errorf("unpersistable state %s", e.State)
	}
	if err := writeByte(w, state); err != nil {
		return err
	}
	if err := writeU64(w, uint64(e.SizeBytes)); err != nil {
		return err
	}
	if err := writeU64(w, math.Float64bits(e.RebuildCost)); err != nil {
		return err
	}
	return writeU64(w, uint64(e.Builds))
}

func readStructureEntry(r io.Reader) (indexer.PersistEntry, error) {
	var e indexer.PersistEntry
	var err error
	if e.Name, err = readString(r); err != nil {
		return e, err
	}
	if e.Base, err = readString(r); err != nil {
		return e, err
	}
	kind, err := readByte(r)
	if err != nil {
		return e, err
	}
	switch kind {
	case structLocal:
		e.Kind = indexer.Local
	case structGlobal:
		e.Kind = indexer.Global
	default:
		return e, fmt.Errorf("unknown structure kind %d", kind)
	}
	state, err := readByte(r)
	if err != nil {
		return e, err
	}
	switch state {
	case structReady:
		e.State = indexer.StateReady
	case structEvicted:
		e.State = indexer.StateEvicted
	default:
		return e, fmt.Errorf("unknown structure state %d", state)
	}
	size, err := readU64(r)
	if err != nil {
		return e, err
	}
	e.SizeBytes = int64(size)
	cost, err := readU64(r)
	if err != nil {
		return e, err
	}
	e.RebuildCost = math.Float64frombits(cost)
	builds, err := readU64(r)
	if err != nil {
		return e, err
	}
	e.Builds = int64(builds)
	return e, nil
}

func writeScriptBinding(w io.Writer, b script.SpecBinding) error {
	for _, s := range []string{b.Structure, b.Base, b.Kind} {
		if err := writeString(w, s); err != nil {
			return err
		}
	}
	if b.Partitions < 0 {
		return fmt.Errorf("negative partitions %d", b.Partitions)
	}
	if err := writeU32(w, uint32(b.Partitions)); err != nil {
		return err
	}
	for _, s := range []string{b.Script, b.PartKeyFn, b.KeysFn} {
		if err := writeString(w, s); err != nil {
			return err
		}
	}
	return nil
}

func readScriptBinding(r io.Reader) (script.SpecBinding, error) {
	var b script.SpecBinding
	var err error
	for _, dst := range []*string{&b.Structure, &b.Base, &b.Kind} {
		if *dst, err = readString(r); err != nil {
			return b, err
		}
	}
	parts, err := readU32(r)
	if err != nil {
		return b, err
	}
	if parts > maxSaneParts {
		return b, fmt.Errorf("absurd partition count %d", parts)
	}
	b.Partitions = int(parts)
	for _, dst := range []*string{&b.Script, &b.PartKeyFn, &b.KeysFn} {
		if *dst, err = readString(r); err != nil {
			return b, err
		}
	}
	return b, nil
}

// stagedFile is a fully-parsed snapshot file held in memory until the
// trailing checksum verifies; only then does it touch the cluster.
type stagedFile struct {
	name        string
	kind        dfs.Kind
	partitioner lake.Partitioner
	parts       [][]lake.Record // one slice per partition
}

// ReadSnapshot reads a snapshot, recreates its files on the cluster,
// advances the cluster's catalog version to the snapshot's, and returns its
// metadata section. The whole stream — including the trailing
// CRC — is parsed and verified BEFORE any file is created, so a corrupted
// or truncated snapshot leaves the catalog untouched.
func ReadSnapshot(ctx context.Context, r io.Reader, cluster *dfs.Cluster) (*SnapshotMeta, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("store: reading magic: %w", err)
	}
	if m := string(magic); m != snapshotMagic {
		if strings.HasPrefix(m, snapshotMagic[:6]) {
			return nil, fmt.Errorf("store: unsupported snapshot version %q (this reader decodes %q)", m, snapshotMagic)
		}
		return nil, fmt.Errorf("store: bad magic %q", magic)
	}
	sum := crc32.NewIEEE()
	tr := io.TeeReader(br, sum)

	meta := &SnapshotMeta{}
	var err error
	if meta.CatalogVersion, err = readU64(tr); err != nil {
		return nil, fmt.Errorf("store: reading catalog version: %w", err)
	}
	staged, err := readSection(tr, "file", stageFile)
	if err != nil {
		return nil, err
	}
	if meta.Structures, err = readSection(tr, "structure", readStructureEntry); err != nil {
		return nil, err
	}
	if meta.Scripts, err = readSection(tr, "script", readScriptEntry); err != nil {
		return nil, err
	}
	if meta.ScriptSpecs, err = readSection(tr, "binding", readScriptBinding); err != nil {
		return nil, err
	}
	computed := sum.Sum32()
	stored, err := readU32(br)
	if err != nil {
		return nil, fmt.Errorf("store: reading checksum: %w", err)
	}
	if stored != computed {
		return nil, fmt.Errorf("store: checksum mismatch: stored %08x, computed %08x", stored, computed)
	}

	// Everything verified; now apply. Name collisions are checked up front
	// so a restore over a non-empty catalog fails before creating anything.
	for _, sf := range staged {
		if _, err := cluster.File(sf.name); err == nil {
			return nil, fmt.Errorf("store: restore: file %q already exists", sf.name)
		}
	}
	for _, sf := range staged {
		f, err := cluster.CreateFile(sf.name, sf.kind, len(sf.parts), sf.partitioner)
		if err != nil {
			return nil, err
		}
		for p, recs := range sf.parts {
			for _, rec := range recs {
				if err := f.Append(ctx, p, rec); err != nil {
					return nil, err
				}
			}
		}
	}
	cluster.AdvanceCatalogVersion(meta.CatalogVersion)
	return meta, nil
}

// ReadSnapshotFromPath restores a snapshot file into the cluster and
// returns its metadata section.
func ReadSnapshotFromPath(ctx context.Context, path string, cluster *dfs.Cluster) (*SnapshotMeta, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadSnapshot(ctx, f, cluster)
}

// stageFile parses one file section into memory without touching a cluster.
func stageFile(r io.Reader) (stagedFile, error) {
	var sf stagedFile
	var err error
	if sf.name, err = readString(r); err != nil {
		return sf, err
	}
	kindB, err := readByte(r)
	if err != nil {
		return sf, err
	}
	sf.kind = dfs.Heap
	if kindB == kindBtree {
		sf.kind = dfs.Btree
	}
	if sf.partitioner, err = readPartitioner(r); err != nil {
		return sf, err
	}
	nParts, err := readU32(r)
	if err != nil {
		return sf, err
	}
	if nParts > maxSaneParts {
		return sf, fmt.Errorf("absurd partition count %d", nParts)
	}
	sf.parts = make([][]lake.Record, nParts)
	for p := range sf.parts {
		nRecs, err := readU64(r)
		if err != nil {
			return sf, err
		}
		if nRecs > maxSaneLen {
			return sf, fmt.Errorf("absurd record count %d", nRecs)
		}
		for j := uint64(0); j < nRecs; j++ {
			key, err := readString(r)
			if err != nil {
				return sf, err
			}
			data, err := readBytes(r)
			if err != nil {
				return sf, err
			}
			sf.parts[p] = append(sf.parts[p], lake.Record{Key: key, Data: data})
		}
	}
	return sf, nil
}

// Little-endian primitives with length sanity checks.

func writeByte(w io.Writer, b byte) error {
	_, err := w.Write([]byte{b})
	return err
}

func readByte(r io.Reader) (byte, error) {
	var b [1]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return b[0], nil
}

func writeU32(w io.Writer, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	_, err := w.Write(b[:])
	return err
}

func readU32(r io.Reader) (uint32, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

func writeU64(w io.Writer, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	_, err := w.Write(b[:])
	return err
}

func readU64(r io.Reader) (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

func writeBytes(w io.Writer, b []byte) error {
	if err := writeU32(w, uint32(len(b))); err != nil {
		return err
	}
	_, err := w.Write(b)
	return err
}

func readBytes(r io.Reader) ([]byte, error) {
	n, err := readU32(r)
	if err != nil {
		return nil, err
	}
	if n > maxSaneLen {
		return nil, fmt.Errorf("absurd length prefix %d", n)
	}
	// Small payloads (the overwhelmingly common case) get one allocation;
	// large ones grow with the data actually read, so a corrupt length
	// prefix near the bound cannot force a gigabyte allocation against a
	// stream that is about to run dry.
	const eager = 1 << 20
	if n <= eager {
		b := make([]byte, n)
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		return b, nil
	}
	var buf bytes.Buffer
	if _, err := io.CopyN(&buf, r, int64(n)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func writeString(w io.Writer, s string) error { return writeBytes(w, []byte(s)) }

func readString(r io.Reader) (string, error) {
	b, err := readBytes(r)
	return string(b), err
}
