package a_test

import (
	"testing"

	"importmap/a"
	"importmap/b"
)

// The a.T built here must be the a.T b.Count takes: b resolves to the
// variant compiled against a's test build, not to plain b.
func TestCount(t *testing.T) {
	if b.Count(a.T{N: 1}) != 1 {
		t.Fatal("b.Count")
	}
}
