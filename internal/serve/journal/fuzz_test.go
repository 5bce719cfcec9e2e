package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// newerHeader reports whether data opens with an intact, decodable
// record of a schema newer than Schema: the header Open must refuse.
func newerHeader(data []byte) bool {
	if len(data) < 8 {
		return false
	}
	n := binary.LittleEndian.Uint32(data[0:4])
	if n > maxRecordBytes || int64(n) > int64(len(data)-8) {
		return false
	}
	payload := data[8 : 8+n]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[4:8]) {
		return false
	}
	var rec Record
	return json.Unmarshal(payload, &rec) == nil && rec.Schema > Schema
}

// FuzzJournalReplay opens a jobs.journal of arbitrary bytes. Open must
// never panic: it replays entries or returns an error, and the only
// error bytes can cause is a *SchemaError, which a newer header must
// give. Whatever Open kept, reopening the directory replays the same
// entries and finds no torn bytes left to truncate, and a job appended
// then is replayed by the next open.
func FuzzJournalReplay(f *testing.F) {
	dir := f.TempDir()
	j, _, _, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	for _, rec := range []Record{
		{JobID: "j1", State: StateAccepted, Kind: "extract", IdemKey: "k1", Request: json.RawMessage(`{"edge_m":1}`)},
		{JobID: "j1", State: StateRunning},
		{JobID: "j2", State: StateAccepted, Kind: "sweep", IdemKey: "k1", Request: json.RawMessage(`{"edge_m":2}`)},
		{JobID: "j1", State: StateCompleted, Result: json.RawMessage(`{"job_id":"j1"}`)},
		{JobID: "j3", State: StateFailed, Error: json.RawMessage(`{"code":"internal"}`)},
	} {
		if err := j.Append(rec); err != nil {
			f.Fatal(err)
		}
	}
	j.Close()
	log, err := os.ReadFile(filepath.Join(dir, FileName))
	if err != nil {
		f.Fatal(err)
	}
	flipped := bytes.Clone(log)
	flipped[len(log)/2] ^= 0xff
	frame := func(payload []byte) []byte {
		b := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
		b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, castagnoli))
		return append(b, payload...)
	}
	newer, _ := json.Marshal(Record{Schema: Schema + 1})
	f.Add(log)
	f.Add(log[:len(log)-1])
	f.Add(flipped)
	f.Add(frame(newer))
	f.Add(frame([]byte("not a record"))) // intact but undecodable: no header
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, FileName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, entries, _, err := Open(dir)
		var se *SchemaError
		if newerHeader(data) && !errors.As(err, &se) {
			t.Fatalf("a newer header opened with %v, want a *SchemaError", err)
		}
		if err != nil {
			if !errors.As(err, &se) {
				t.Fatalf("Open: %v, want entries or a *SchemaError", err)
			}
			return
		}
		j.Close()
		j, again, stats, err := Open(dir)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if !reflect.DeepEqual(again, entries) {
			t.Fatalf("reopen replayed %+v, want %+v", again, entries)
		}
		if stats.TornBytes != 0 {
			t.Fatalf("reopen truncated %d torn bytes the first open kept", stats.TornBytes)
		}
		appended := Entry{JobID: "appended-after-replay", State: StateAccepted}
		for _, e := range entries {
			if e.JobID == appended.JobID {
				j.Close()
				return
			}
		}
		if err := j.Append(Record{JobID: appended.JobID, State: appended.State}); err != nil {
			t.Fatalf("Append: %v", err)
		}
		j.Close()
		j, last, _, err := Open(dir)
		if err != nil {
			t.Fatalf("open after an append: %v", err)
		}
		j.Close()
		if want := append(entries, appended); !reflect.DeepEqual(last, want) {
			t.Fatalf("open after an append replayed %+v, want %+v", last, want)
		}
	})
}
