package openql

// DiffCorpus exposes the differential corpus to the external test
// package, whose tests drive it through core stacks.
var DiffCorpus = diffCorpus
