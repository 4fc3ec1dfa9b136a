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
