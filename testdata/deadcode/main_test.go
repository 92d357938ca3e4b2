package main

import "testing"

func TestOnlyTested(t *testing.T) {
	if onlyTested() != 3 {
		t.Fatal("onlyTested")
	}
}
