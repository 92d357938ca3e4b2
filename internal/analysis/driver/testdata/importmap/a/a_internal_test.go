package a

// helper exists only in the test build of a, so go list recompiles a's
// dependents that the external test imports — b — against that build.
func helper() T { return T{} }
