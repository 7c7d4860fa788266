package formal

// Verdict is what a check decided about one property, the one shape a
// model-checking verdict keeps from the checker to the judged row.
type Verdict struct {
	Class  Class
	Reason Reason
	// Depth is the bound the class was reached at: an induction
	// length, a counterexample's depth, a lasso length or a searched
	// BMC depth.
	Depth int
}

// Class is the decision of a verdict.
type Class uint8

// Class values. The zero value is Undecided, as is a property never
// checked.
const (
	Undecided Class = iota
	Proven
	Falsified
	SyntaxError // the text does not parse, elaborate or validate
	ElabError   // the checker rejects the property
)

var classNames = [...]string{"undecided", "proven", "falsified", "syntax error", "elaboration error"}

func (c Class) String() string { return classNames[c] }

// Reason qualifies a verdict.
type Reason uint8

// Reason values.
const (
	NoReason Reason = iota
	// Bound: the class holds only up to Depth — an undecided safety
	// check, a liveness proof with no lasso up to its bound, a cover
	// unreachable within its depth.
	Bound
	// Budget: a solver call ran out of its conflict budget.
	Budget
)
