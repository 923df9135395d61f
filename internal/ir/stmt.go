package ir

// Stmt is a statement.
type Stmt interface{ isStmt() }

// Loop is a counted for-loop: for Var = Lo; Var < Hi; Var += Step. The
// body may contain nested loops.
type Loop struct {
	Var    string
	Slot   int
	Lo, Hi IExpr
	Step   int64
	Body   []Stmt
}

// AssignF stores a float expression to a float64 array element.
type AssignF struct {
	Arr *Array
	Idx []IExpr
	RHS FExpr
}

// AssignI stores an integer expression to an int64 array element.
type AssignI struct {
	Arr *Array
	Idx []IExpr
	RHS IExpr
}

// SetScalarF assigns a float scalar variable.
type SetScalarF struct {
	Slot int
	Name string
	RHS  FExpr
}

// SetScalarI assigns an integer scalar variable.
type SetScalarI struct {
	Slot int
	Name string
	RHS  IExpr
}

// If executes Then or Else depending on Cond.
type If struct {
	Cond BExpr
	Then []Stmt
	Else []Stmt
}

// Prefetch is a compiler-inserted non-binding prefetch hint: fetch Pages
// pages starting at the page containing &Arr[Idx...]. It is routed through
// the run-time layer at execution.
type Prefetch struct {
	Arr   *Array
	Idx   []IExpr
	Pages IExpr
}

// Release is a compiler-inserted release hint: Pages pages starting at the
// page containing &Arr[Idx...] will not be needed soon.
type Release struct {
	Arr   *Array
	Idx   []IExpr
	Pages IExpr
}

// PrefetchRelease is the bundled form (prefetch_release_block in
// Figure 2): one run-time call, at most one system call.
type PrefetchRelease struct {
	PfArr    *Array
	PfIdx    []IExpr
	PfPages  IExpr
	RelArr   *Array
	RelIdx   []IExpr
	RelPages IExpr
}

func (*Loop) isStmt()           {}
func (AssignF) isStmt()         {}
func (AssignI) isStmt()         {}
func (SetScalarF) isStmt()      {}
func (SetScalarI) isStmt()      {}
func (If) isStmt()              {}
func (Prefetch) isStmt()        {}
func (Release) isStmt()         {}
func (PrefetchRelease) isStmt() {}
