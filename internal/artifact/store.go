// Package artifact implements the disk-backed content-addressed blob
// store behind the staged extraction plans' persistent stage artifacts:
// near-field value arrays, precorrection rows, dense matrices and
// block-Jacobi LDLᵀ factors keyed by a content hash of the exact geometry
// and solve options (see internal/plan's artifact codec).
//
// # On-disk format
//
// Each entry is one file <key>.art under the store root:
//
//	[8]  magic "PBART1\r\n"
//	[4]  LE key length
//	[k]  key bytes (must equal the file's base name)
//	[4]  LE payload length
//	[4]  LE CRC-32C (Castagnoli) of the payload
//	[n]  payload
//
// Writes are crash-safe the same way serve/journal compaction is: the
// entry is staged to a temp file, fsync'd, renamed over its final name,
// and the directory fsync'd, so a crash leaves either the old state or
// the new one — never a half-written entry under a live name. Reads
// verify the magic, the embedded key against the file name (a renamed
// or cross-linked blob must never be served under the wrong hash), the
// framed lengths and the CRC; any mismatch drops the entry (skip-and-
// log) and reports a miss, so the caller recomputes instead of
// consuming corruption.
//
// The store enforces an LRU size budget: when a Put would push the
// resident bytes over MaxBytes, least-recently-used entries are evicted
// until it fits. Recency survives only in memory (evictions after a
// restart fall back to file mtime order), which can only evict a warm
// entry early — never serve a stale one.
package artifact

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// magic identifies an artifact entry file.
const magic = "PBART1\r\n"

// suffix is the entry file extension.
const suffix = ".art"

// maxKeyLen bounds key length: keys are file names.
const maxKeyLen = 128

// MaxEntryBytes caps one entry's payload (a defense against framing
// corruption allocating unbounded memory, like journal.maxRecordBytes).
const MaxEntryBytes = 256 << 20

// castagnoli is the CRC-32C table (matches serve/journal framing).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ValidKey reports whether key is safe as an entry name: 1-128 chars of
// lowercase hex plus '-' and '.' separators, not starting with '.' or
// '-' (no dotfiles, no flag-like names, no path traversal).
func ValidKey(key string) bool {
	if len(key) == 0 || len(key) > maxKeyLen {
		return false
	}
	if key[0] == '.' || key[0] == '-' {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '-', c == '.':
		default:
			return false
		}
	}
	return true
}

// Options configures a Store.
type Options struct {
	// MaxBytes is the LRU payload budget (0 = 1 GiB). Entries above the
	// budget evict least-recently-used first.
	MaxBytes int64
	// Logf receives corruption and eviction diagnostics (nil = discard).
	Logf func(format string, args ...any)
}

// Stats is a snapshot of the store's counters.
type Stats struct {
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Puts      uint64 `json:"puts"`
	Evictions uint64 `json:"evictions"`
	// Corrupt counts entries dropped for failing verification (bad
	// magic, key mismatch, truncation, CRC mismatch).
	Corrupt uint64 `json:"corrupt"`
}

// entry is the in-memory index record of one resident blob.
type entry struct {
	size int64 // payload bytes
	seq  int64 // recency clock (higher = more recent)
}

// Store is a disk-backed content-addressed artifact store. Safe for
// concurrent use.
type Store struct {
	dir      string
	maxBytes int64
	logf     func(format string, args ...any)

	mu      sync.Mutex
	entries map[string]*entry
	bytes   int64
	clock   int64
	stats   Stats
}

// Open opens (creating if needed) the store rooted at dir and indexes
// the resident entries. Unreadable or misnamed files are skipped with a
// log line, never served.
func Open(dir string, opt Options) (*Store, error) {
	if dir == "" {
		return nil, errors.New("artifact: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	s := &Store{
		dir:      dir,
		maxBytes: opt.MaxBytes,
		logf:     opt.Logf,
		entries:  make(map[string]*entry),
	}
	if s.maxBytes <= 0 {
		s.maxBytes = 1 << 30
	}
	if s.logf == nil {
		s.logf = func(string, ...any) {}
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	// Index by mtime order so pre-restart entries carry a sane relative
	// recency for the LRU.
	type resident struct {
		key   string
		size  int64
		mtime int64
	}
	var found []resident
	for _, de := range names {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, suffix) {
			if strings.HasPrefix(name, ".tmp-") {
				// Torn write from a previous crash: the rename never
				// happened, so the entry was never live.
				os.Remove(filepath.Join(dir, name))
			}
			continue
		}
		key := strings.TrimSuffix(name, suffix)
		if !ValidKey(key) {
			s.logf("artifact: skipping invalid entry name %q", name)
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		// Payload size = file size minus framing; verified on Get.
		size := info.Size() - int64(len(magic)+4+len(key)+4+4)
		if size < 0 {
			s.logf("artifact: dropping truncated entry %q", name)
			s.stats.Corrupt++
			os.Remove(filepath.Join(dir, name))
			continue
		}
		found = append(found, resident{key: key, size: size, mtime: info.ModTime().UnixNano()})
	}
	sort.Slice(found, func(i, j int) bool { return found[i].mtime < found[j].mtime })
	for _, r := range found {
		s.clock++
		s.entries[r.key] = &entry{size: r.size, seq: s.clock}
		s.bytes += r.size
	}
	return s, nil
}

// path returns the entry file of key.
func (s *Store) path(key string) string { return filepath.Join(s.dir, key+suffix) }

// Get returns the payload stored under key, verifying the full frame.
// A corrupt entry is dropped (skip-and-log) and reported as a miss so
// the caller recomputes.
func (s *Store) Get(key string) ([]byte, bool) {
	if !ValidKey(key) {
		return nil, false
	}
	s.mu.Lock()
	e := s.entries[key]
	if e != nil {
		s.clock++
		e.seq = s.clock
	}
	s.mu.Unlock()
	if e == nil {
		s.mu.Lock()
		s.stats.Misses++
		s.mu.Unlock()
		return nil, false
	}
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		s.drop(key, fmt.Sprintf("unreadable: %v", err))
		return nil, false
	}
	payload, err := verifyFrame(key, data)
	if err != nil {
		s.drop(key, err.Error())
		return nil, false
	}
	s.mu.Lock()
	s.stats.Hits++
	s.mu.Unlock()
	return payload, true
}

// encodeFrame returns the entry file of payload under key, the frame
// verifyFrame accepts.
func encodeFrame(key string, payload []byte) []byte {
	frame := make([]byte, 0, len(magic)+4+len(key)+8+len(payload))
	frame = append(frame, magic...)
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(key)))
	frame = append(frame, key...)
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, castagnoli))
	return append(frame, payload...)
}

// verifyFrame checks an entry file against the expected key and returns
// the payload.
func verifyFrame(key string, data []byte) ([]byte, error) {
	if len(data) < len(magic)+4 || string(data[:len(magic)]) != magic {
		return nil, errors.New("bad magic")
	}
	p := data[len(magic):]
	klen := int(binary.LittleEndian.Uint32(p))
	if klen > maxKeyLen || len(p) < 4+klen+8 {
		return nil, errors.New("truncated header")
	}
	if string(p[4:4+klen]) != key {
		return nil, fmt.Errorf("key mismatch: entry holds %q", p[4:4+klen])
	}
	p = p[4+klen:]
	plen := int64(binary.LittleEndian.Uint32(p))
	crc := binary.LittleEndian.Uint32(p[4:])
	if plen > MaxEntryBytes || int64(len(p)) != 8+plen {
		return nil, errors.New("truncated payload")
	}
	payload := p[8:]
	if crc32.Checksum(payload, castagnoli) != crc {
		return nil, errors.New("CRC mismatch")
	}
	return payload, nil
}

// drop removes a corrupt or unreadable entry.
func (s *Store) drop(key, reason string) {
	s.logf("artifact: dropping %s: %s", key, reason)
	s.mu.Lock()
	if e := s.entries[key]; e != nil {
		s.bytes -= e.size
		delete(s.entries, key)
	}
	s.stats.Corrupt++
	s.stats.Misses++
	s.mu.Unlock()
	os.Remove(s.path(key))
}

// Put stores payload under key, atomically (temp file + fsync + rename
// + directory fsync), evicting least-recently-used entries if the
// budget requires. Re-putting a resident key rewrites it in place
// (concurrent Gets see either complete frame, never a mix).
func (s *Store) Put(key string, payload []byte) error {
	if !ValidKey(key) {
		return fmt.Errorf("artifact: invalid key %q", key)
	}
	if int64(len(payload)) > MaxEntryBytes {
		return fmt.Errorf("artifact: payload of %d bytes exceeds the %d entry cap", len(payload), MaxEntryBytes)
	}
	if int64(len(payload)) > s.maxBytes {
		// Larger than the whole budget: storing it would evict
		// everything and then itself; skip.
		return fmt.Errorf("artifact: payload of %d bytes exceeds the %d byte budget", len(payload), s.maxBytes)
	}
	frame := encodeFrame(key, payload)

	s.evictFor(key, int64(len(payload)))

	tmp, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	if _, err := tmp.Write(frame); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("artifact: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("artifact: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return fmt.Errorf("artifact: %w", err)
	}

	s.mu.Lock()
	s.clock++
	if e := s.entries[key]; e != nil {
		s.bytes += int64(len(payload)) - e.size
		e.size = int64(len(payload))
		e.seq = s.clock
	} else {
		s.entries[key] = &entry{size: int64(len(payload)), seq: s.clock}
		s.bytes += int64(len(payload))
	}
	s.stats.Puts++
	s.mu.Unlock()
	return nil
}

// evictFor makes room for a put of size bytes under key, removing
// least-recently-used entries (never key itself — a rewrite reuses its
// own budget).
func (s *Store) evictFor(key string, size int64) {
	var victims []string
	s.mu.Lock()
	resident := int64(0)
	if e := s.entries[key]; e != nil {
		resident = e.size
	}
	for s.bytes-resident+size > s.maxBytes && len(s.entries) > 0 {
		oldest, oldestSeq := "", int64(0)
		for k, e := range s.entries {
			if k == key {
				continue
			}
			if oldest == "" || e.seq < oldestSeq {
				oldest, oldestSeq = k, e.seq
			}
		}
		if oldest == "" {
			break
		}
		s.bytes -= s.entries[oldest].size
		delete(s.entries, oldest)
		s.stats.Evictions++
		victims = append(victims, oldest)
	}
	s.mu.Unlock()
	for _, k := range victims {
		s.logf("artifact: evicting %s (LRU, budget %d bytes)", k, s.maxBytes)
		os.Remove(s.path(k))
	}
}

// Bytes returns the resident payload bytes.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.entries)
	st.Bytes = s.bytes
	return st
}

// syncDir fsyncs a directory so a rename is durable (the serve/journal
// idiom).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
