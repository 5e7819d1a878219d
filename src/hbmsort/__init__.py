"""Two-phase merge-tree sorting model for multi-channel HBM accelerators."""
