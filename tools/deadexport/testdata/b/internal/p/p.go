package p

// Used is named by internal/q.
type Used struct{ N int }

// Limit is named only here, by New: in use, if needlessly exported.
const Limit = 8

func New() *Used { return &Used{N: Limit} }

// Oracle is what the tests compare New against.
//
//lint:deadexport reference implementation for the tests
func Oracle() int { return 8 }

//lint:deadexport reference table for the tests
var Table = []int{8}

// Get is selected by internal/q through a value of type Used.
func (u *Used) Get() int { return u.N }

// Inner's Promoted is selected through Outer, which embeds it.
type Inner struct{}

func (Inner) Promoted() int { return 8 }

type Outer struct{ Inner }

// Area is never selected on Used, but it is a method of q's Shape interface,
// so a call through the interface may land here.
func (u *Used) Area() int { return u.N }

// Check is what the tests compare Get against.
//
//lint:deadexport reference implementation for the tests
func (u *Used) Check() int { return 8 }
