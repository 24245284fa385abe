"""Layer-by-layer benchmark of the Jarvis reproduction (see README.md)."""
