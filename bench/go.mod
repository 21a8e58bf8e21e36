// The campaign benchmark is a module of its own so that it builds with its
// own build file and stays out of the root module's `go build ./...` and
// `go test ./...`. Its import path lies under excovery/, which is what lets
// it import excovery/internal/...; the replace points at the checkout.
module excovery/bench

go 1.22

require excovery v0.0.0

replace excovery => ../
