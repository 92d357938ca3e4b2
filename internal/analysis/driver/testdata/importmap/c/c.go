// Package c has external test files only, so go list lists no
// "importmap/c [importmap/c.test]" variant that would supersede it.
package c

func One() int { return 1 }
