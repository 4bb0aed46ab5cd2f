"""Text processing substrate: tokenization, stemming, vectors, ttf.itf."""
