package b

import "importmap/a"

func Count(t a.T) int { return t.N }
