package q

import "fix/internal/p"

//lint:deadexport the fixture's entry point
func Run() *p.Used {
	u := p.New()
	u.N = u.Get() + p.Outer{}.Promoted()
	return u
}

// shape makes Area an interface method: p.Used.Area is exempt.
type shape interface{ Area() int }

var _ shape
