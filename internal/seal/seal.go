// Package seal is the one sealed-envelope codec behind every integrity
// trailer in the repository: the model wire format (core), the encode wire
// format (encoder) and checkpoint cells. A sealed JSON object carries a
// "sum" field holding the hex SHA-256 of the object's own compact JSON
// encoding with that field blanked.
package seal

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
)

// ErrMismatch marks a trailer that disagrees with its content: the payload
// changed after it was sealed. Callers detect it with errors.Is.
var ErrMismatch = errors.New("checksum mismatch")

// ErrMissing marks an envelope whose trailer is empty. It is not an
// ErrMismatch: an unsealed payload is malformed, not corrupted.
var ErrMissing = errors.New("missing checksum trailer")

// Seal blanks *sum, hashes the JSON encoding of v (which must hold the
// field sum points to) and stamps the hex digest into *sum.
func Seal(v any, sum *string) error {
	*sum = ""
	d, err := digest(v)
	if err != nil {
		return err
	}
	*sum = d
	return nil
}

// Verify is the reverse of Seal: it recomputes the digest of v with *sum
// blanked and compares it with the trailer, leaving *sum as it found it.
func Verify(v any, sum *string) error {
	want := *sum
	if want == "" {
		return ErrMissing
	}
	*sum = ""
	got, err := digest(v)
	*sum = want
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("%w: trailer says %.12s…, content hashes to %.12s…", ErrMismatch, want, got)
	}
	return nil
}

func digest(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	d := sha256.Sum256(b)
	return hex.EncodeToString(d[:]), nil
}
