package httpstore

import "testing"

// FuzzParseRange: the Range header is client input. Parsing it must
// never panic, and every range it accepts must satisfy 0 <= off <= end.
func FuzzParseRange(f *testing.F) {
	for _, h := range []string{
		"bytes=0-15", "bytes=100-149", "bytes=5-4", "bytes=-5", "bytes=0-",
		"bytes=0-1,2-3", "items=0-1", "bytes=+1-+2", "bytes=9223372036854775807-9223372036854775807", "",
	} {
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, h string) {
		if off, end, ok := parseRange(h); ok && (off < 0 || end < off) {
			t.Fatalf("parseRange(%q) accepted [%d, %d]", h, off, end)
		}
	})
}
