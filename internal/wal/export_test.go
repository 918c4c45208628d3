// Test-only accessors: functions the tests decode log images with that no
// production code calls.

package wal

// Decode parses a log image, verifying per-record CRCs and the full hash
// chain from the genesis seed. In strict mode every failure is an
// ErrCorrupt; in tolerant mode a failure confined to the final frame is
// reported as a torn tail instead (any damage with intact data after it
// cannot be a crash artifact and stays hard corruption either way).
func Decode(b []byte, genesis string, strict bool) (*DecodeResult, error) {
	return decodeFrom(b, 1, genesis, strict)
}
