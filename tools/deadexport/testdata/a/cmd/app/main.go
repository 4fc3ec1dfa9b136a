package main

import "fix/internal/p"

func main() { _ = p.Live() }
