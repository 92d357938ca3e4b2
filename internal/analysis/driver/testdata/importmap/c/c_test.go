package c_test

import (
	"testing"

	"importmap/c"
)

func TestOne(t *testing.T) {
	if c.One() != 1 {
		t.Fatal("One")
	}
}
