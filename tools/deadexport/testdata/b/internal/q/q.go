package q

import "fix/internal/p"

//lint:deadexport the fixture's entry point
func Run() *p.Used { return p.New() }
