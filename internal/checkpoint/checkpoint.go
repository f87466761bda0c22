// Package checkpoint persists per-cell results of long-running evaluation
// sweeps, so a killed run resumes where it stopped instead of recomputing
// hours of work from zero.
//
// Each cell is one small JSON file following the repository's v1
// wire-format conventions: a version key and a SHA-256 hash trailer over
// the canonical encoding. Writes are atomic (tmp file + rename in the same
// directory), so a crash mid-write can never leave a half-written cell
// that a resumed run would trust. Reads verify the trailer; a corrupted
// cell is quarantined (renamed to *.corrupt) and reported as a miss, so
// the caller transparently recomputes it.
package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"

	"collabscope/internal/seal"
)

// Version is the checkpoint file format version this package writes.
const Version = 1

// ErrCorrupt marks a checkpoint file whose hash trailer (or envelope) does
// not match its content. Load quarantines such files and reports a miss;
// the sentinel is exposed for tests and tooling that inspect quarantined
// cells directly via Verify.
var ErrCorrupt = errors.New("checkpoint: corrupt cell")

// envelope is the on-disk form of one cell: the versioned payload plus the
// integrity trailer, sealed like the model wire format of internal/core.
type envelope struct {
	Version int             `json:"version"`
	Key     string          `json:"key"`
	Payload json.RawMessage `json:"payload"`
	// Sum is the seal trailer (internal/seal): the hex SHA-256 of the
	// canonical JSON encoding of this object with Sum itself omitted.
	Sum string `json:"sum,omitempty"`
}

// Store is a directory of checkpoint cells, one file per key. It
// implements core.CellStore.
type Store struct {
	dir string
}

// Open returns a store rooted at dir, creating the directory if needed.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: open store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// path maps a key to its cell file: a readable slug plus an FNV hash of
// the full key, so distinct keys can never collide on a sanitised name.
func (s *Store) path(key string) string {
	h := fnv.New64a()
	h.Write([]byte(key))
	return filepath.Join(s.dir, fmt.Sprintf("%s-%016x.json", slug(key), h.Sum64()))
}

// slug reduces a key to a short filesystem-safe name fragment.
func slug(key string) string {
	out := make([]rune, 0, 40)
	for _, r := range key {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '.', r == '=':
			out = append(out, r)
		case r >= 'A' && r <= 'Z':
			out = append(out, r+'a'-'A')
		default:
			if len(out) > 0 && out[len(out)-1] != '_' {
				out = append(out, '_')
			}
		}
		if len(out) >= 40 {
			break
		}
	}
	for len(out) > 0 && out[len(out)-1] == '_' {
		out = out[:len(out)-1]
	}
	if len(out) == 0 {
		return "cell"
	}
	return string(out)
}

// Save marshals v and writes the cell atomically: the envelope goes to a
// temp file in the store directory, which is then renamed over the final
// path. A crash between the two leaves either the old cell or none — never
// a torn file.
func (s *Store) Save(key string, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("checkpoint: marshal cell %q: %w", key, err)
	}
	env := &envelope{Version: Version, Key: key, Payload: payload}
	if err := seal.Seal(env, &env.Sum); err != nil {
		return fmt.Errorf("checkpoint: hash cell: %w", err)
	}
	b, err := json.Marshal(env)
	if err != nil {
		return fmt.Errorf("checkpoint: marshal envelope %q: %w", key, err)
	}
	tmp, err := os.CreateTemp(s.dir, ".cell-*.tmp")
	if err != nil {
		return fmt.Errorf("checkpoint: save cell %q: %w", key, err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(append(b, '\n')); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: save cell %q: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: save cell %q: %w", key, err)
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		return fmt.Errorf("checkpoint: save cell %q: %w", key, err)
	}
	return nil
}

// Load reads the cell for key into v. It returns (true, nil) on a verified
// hit and (false, nil) when the cell is absent — or present but corrupt,
// in which case the damaged file is quarantined as <cell>.corrupt so the
// caller recomputes and overwrites it. Only hard I/O failures return a
// non-nil error.
func (s *Store) Load(key string, v any) (bool, error) {
	path := s.path(key)
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("checkpoint: load cell %q: %w", key, err)
	}
	if err := verify(b, key, v); err != nil {
		// Hash mismatch or mangled envelope: quarantine for forensics and
		// report a miss so the cell is recomputed.
		_ = os.Rename(path, path+".corrupt")
		return false, nil
	}
	return true, nil
}

// Verify checks one serialised cell against a key and decodes its payload
// into v, returning a wrapped ErrCorrupt on any integrity failure.
func Verify(b []byte, key string, v any) error { return verify(b, key, v) }

func verify(b []byte, key string, v any) error {
	var env envelope
	if err := json.Unmarshal(b, &env); err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if env.Version <= 0 || env.Version > Version {
		return fmt.Errorf("%w: version %d not supported (this build speaks ≤ %d)", ErrCorrupt, env.Version, Version)
	}
	if env.Key != key {
		return fmt.Errorf("%w: cell is keyed %q, want %q", ErrCorrupt, env.Key, key)
	}
	if err := seal.Verify(&env, &env.Sum); err != nil {
		return fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	if err := json.Unmarshal(env.Payload, v); err != nil {
		return fmt.Errorf("%w: payload: %v", ErrCorrupt, err)
	}
	return nil
}
