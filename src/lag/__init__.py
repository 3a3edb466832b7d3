"""Log-augmented generation: store KV caches of past task reasoning,
retrieve them by similarity, reposition their rotary embeddings, and inject
them into new generations.

The package root imports nothing; import each name from its submodule."""

__version__ = "0.1.0"
