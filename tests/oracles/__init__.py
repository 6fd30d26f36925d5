"""Independent reference implementations the production paths are held to."""
