package service

import (
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"rc4break/internal/snapshot"
)

// Envelope kinds for the store's two artifact classes. Blob payloads are
// themselves complete snapshot envelopes (an attack's WriteSnapshot bytes),
// so every consumer revalidates the inner envelope's kind, CRC and
// fingerprint on load — the store adds content addressing on top without
// reinventing the integrity layer. Blob kind v2 is addressed by SHA-256
// (snapshot.BlobKey); a v1 blob is refused with snapshot.ErrOldLayout.
const (
	blobKind     = "rc4break.service.blob.v2"
	manifestKind = "rc4break.service.job.v1"
)

// Store is the content-addressed snapshot store behind the job server.
// Blobs live at blobs/<hex-key> where the key is snapshot.BlobKey over the
// payload — so equal payloads occupy one file no matter how many jobs
// reference them (equal-spec jobs share evidence checkpoints). Job
// manifests live at jobs/<id>. All writes go through the envelope's atomic
// temp+fsync+rename path, so a crash at any instant leaves either the old
// or the new bytes, never a torn file; the listings skip the temp files a
// crash between write and rename leaves behind.
type Store struct {
	dir string
}

// OpenStore opens (creating if needed) a store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	for _, sub := range []string{"blobs", "jobs"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, err
		}
	}
	return &Store{dir: dir}, nil
}

// Dir reports the store root.
func (st *Store) Dir() string { return st.dir }

func (st *Store) blobPath(key [16]byte) string {
	return filepath.Join(st.dir, "blobs", hex.EncodeToString(key[:]))
}

// PutBlob stores payload under its content address and reports the key and
// whether an identical blob was already present (the dedup hit: the write
// is skipped — same key means same kind and same bytes).
func (st *Store) PutBlob(payload []byte) (key [16]byte, existed bool, err error) {
	key = snapshot.BlobKey(blobKind, payload)
	path := st.blobPath(key)
	if _, err := os.Stat(path); err == nil {
		return key, true, nil
	} else if !errors.Is(err, os.ErrNotExist) {
		return key, false, err
	}
	return key, false, snapshot.WriteFile(path, blobKind, payload)
}

// GetBlob loads the payload stored under key, re-deriving the content
// address from the bytes read: a blob that no longer hashes to its own name
// (disk corruption below the envelope CRC's granularity, or a renamed file)
// fails loudly instead of feeding a job wrong evidence.
func (st *Store) GetBlob(key [16]byte) ([]byte, error) {
	f, err := os.Open(st.blobPath(key))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	kind, payload, err := snapshot.Read(f)
	if err != nil {
		return nil, err
	}
	if err := snapshot.CheckKind(kind, blobKind); err != nil {
		return nil, fmt.Errorf("service: blob %x: %w", key, err)
	}
	if got := snapshot.BlobKey(blobKind, payload); got != key {
		return nil, fmt.Errorf("service: blob %x content hashes to %x (store corrupted)", key, got)
	}
	return payload, nil
}

// BlobKeys lists the stored content addresses in sorted hex order.
func (st *Store) BlobKeys() ([]string, error) {
	return st.list("blobs", func(name string) bool {
		_, err := ParseKey(name)
		return err == nil
	})
}

// list returns the sorted names of the regular files in sub that valid
// accepts; anything else — a crash's leftover temp file — is ignored.
func (st *Store) list(sub string, valid func(name string) bool) ([]string, error) {
	ents, err := os.ReadDir(filepath.Join(st.dir, sub))
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && valid(e.Name()) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// BlobCount reports the number of stored blobs.
func (st *Store) BlobCount() (int, error) {
	keys, err := st.BlobKeys()
	return len(keys), err
}

// PutManifest persists a job manifest (atomic replace of any previous
// version).
func (st *Store) PutManifest(m Manifest) error {
	if m.ID == "" {
		return errors.New("service: manifest without job ID")
	}
	return snapshot.WriteFileGob(filepath.Join(st.dir, "jobs", m.ID), manifestKind, m)
}

// GetManifest loads one job manifest.
func (st *Store) GetManifest(id string) (Manifest, error) {
	var m Manifest
	err := snapshot.ReadFileGob(filepath.Join(st.dir, "jobs", id), manifestKind, &m)
	return m, err
}

// Manifests loads every job manifest, sorted by job ID — the restart scan.
// A manifest must carry the ID it is filed under.
func (st *Store) Manifests() ([]Manifest, error) {
	ids, err := st.list("jobs", func(name string) bool {
		_, ok := jobNumber(name)
		return ok
	})
	if err != nil {
		return nil, err
	}
	out := make([]Manifest, 0, len(ids))
	for _, id := range ids {
		m, err := st.GetManifest(id)
		if err == nil && m.ID != id {
			err = fmt.Errorf("holds job %q", m.ID)
		}
		if err != nil {
			return nil, fmt.Errorf("service: manifest %s: %w", id, err)
		}
		out = append(out, m)
	}
	return out, nil
}

// jobNumber parses a job ID of the form j-<decimal>.
func jobNumber(id string) (int, bool) {
	digits, ok := strings.CutPrefix(id, "j-")
	if !ok || digits == "" || digits[0] < '0' || digits[0] > '9' {
		return 0, false
	}
	n, err := strconv.Atoi(digits)
	return n, err == nil
}

// ParseKey decodes a hex blob key (the Manifest.Evidence encoding).
func ParseKey(s string) ([16]byte, error) {
	var key [16]byte
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(key) {
		return key, fmt.Errorf("service: bad blob key %q", s)
	}
	copy(key[:], b)
	return key, nil
}
