package hlo

// NoAttrs is the shared zero Attrs, for the tests that check it stays
// zero.
var NoAttrs = &noAttrs
