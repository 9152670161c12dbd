package store

// BuildSystem lets the external store_test package build the same test
// systems as the internal tests.
var BuildSystem = buildSystem
