// Command deadcode is the fixture of TestUncalledResolvesByType. Every
// function it declares is either called, and so must not be reported,
// or named in the test's want list.
package main

import (
	"fmt"
	"io"
	"os"
)

// Meter and Gauge both declare Read. Only Gauge.Read is called, so a
// match by name keeps Meter.Read alive; a match by type reports it. Its
// signature differs from io.Reader's Read, so no interface saves it.
type Meter struct{}

func (Meter) Read() int { return 1 }

type Gauge struct{}

func (Gauge) Read() int { return 2 }

// Sink.Write is never selected, but io.Writer declares a Write of the
// identical signature and a call through io.Writer may reach it.
type Sink struct{}

func (Sink) Write(p []byte) (int, error) { return len(p), nil }

// countDown calls only itself.
func countDown(n int) int {
	if n == 0 {
		return 0
	}
	return countDown(n - 1)
}

// onlyTested is called from a _test.go file only.
func onlyTested() int { return 3 }

func main() {
	var w io.Writer = Sink{}
	fmt.Fprintln(w, Gauge{}.Read())
	fmt.Fprintln(os.Stdout, "ok")
}
