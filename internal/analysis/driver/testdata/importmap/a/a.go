// Package a is imported by b, and a's external test imports b. Because
// a also has in-package test files, go list recompiles b against a's
// test build and lists it only as "importmap/b [importmap/a.test]".
package a

type T struct{ N int }
