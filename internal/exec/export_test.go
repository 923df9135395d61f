package exec

// Forms reports which executable forms an artifact carries, for the
// external structure test (which imports packages that import this one).
func (a *Artifact) Forms() (bytecode, closureTree bool) { return a.code != nil, a.body != nil }
